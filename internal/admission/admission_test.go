package admission

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"distlock/internal/core"
	"distlock/internal/figures"
	"distlock/internal/model"
	"distlock/internal/workload"
)

// ctx is the never-cancelled context shared by the package's tests.
var ctx = context.Background()

// chainTxn builds a totally ordered transaction from "Lx"/"Ux" specs.
func chainTxn(d *model.DDB, name string, specs ...string) *model.Transaction {
	b := model.NewBuilder(d, name)
	var prev model.NodeID = -1
	for _, s := range specs {
		var id model.NodeID
		if s[0] == 'L' {
			id = b.Lock(s[1:])
		} else {
			id = b.Unlock(s[1:])
		}
		if prev >= 0 {
			b.Arc(prev, id)
		}
		prev = id
	}
	return b.MustFreeze()
}

// xyzDDB returns a three-entity, three-site database.
func xyzDDB() *model.DDB {
	d := model.NewDDB()
	d.MustEntity("x", "s1")
	d.MustEntity("y", "s2")
	d.MustEntity("z", "s3")
	return d
}

// ringTxns is the classic circular-wait trio: pairwise certified, but the
// third class closes a violating Theorem 4 cycle.
func ringTxns(d *model.DDB) []*model.Transaction {
	return []*model.Transaction{
		chainTxn(d, "A", "Lx", "Ly", "Ux", "Uy"),
		chainTxn(d, "B", "Ly", "Lz", "Uy", "Uz"),
		chainTxn(d, "C", "Lz", "Lx", "Uz", "Ux"),
	}
}

// orderedTxns is the globally lock-ordered trio: fully certifiable.
func orderedTxns(d *model.DDB) []*model.Transaction {
	return []*model.Transaction{
		chainTxn(d, "A", "Lx", "Ly", "Ux", "Uy"),
		chainTxn(d, "B", "Lx", "Lz", "Ux", "Uz"),
		chainTxn(d, "C", "Ly", "Lz", "Uy", "Uz"),
	}
}

// checkBrute asserts that the service's decision for t against the live set
// agrees with the exhaustive Lemma 1 oracle on live ∪ {t}.
func checkBrute(t *testing.T, d *model.DDB, live []*model.Transaction, cand *model.Transaction, admitted bool) {
	t.Helper()
	sys := model.MustSystem(d, append(append([]*model.Transaction{}, live...), cand)...)
	want, _, err := core.IsSafeAndDeadlockFreeBrute(sys, core.BruteOptions{})
	if err != nil {
		t.Fatalf("brute: %v", err)
	}
	if admitted != want {
		t.Fatalf("admission of %s = %v disagrees with brute oracle %v", cand.Name(), admitted, want)
	}
}

func TestAdmitSequential(t *testing.T) {
	cases := []struct {
		name string
		txns func(*model.DDB) []*model.Transaction
		want []bool
	}{
		{"ordered-all-admitted", orderedTxns, []bool{true, true, true}},
		{"ring-third-rejected", ringTxns, []bool{true, true, false}},
		{"crosslock-second-rejected", func(d *model.DDB) []*model.Transaction {
			return []*model.Transaction{
				chainTxn(d, "A", "Lx", "Ly", "Ux", "Uy"),
				chainTxn(d, "B", "Ly", "Lx", "Uy", "Ux"),
			}
		}, []bool{true, false}},
		{"disjoint-always-admitted", func(d *model.DDB) []*model.Transaction {
			return []*model.Transaction{
				chainTxn(d, "A", "Lx", "Ux"),
				chainTxn(d, "B", "Ly", "Uy"),
				chainTxn(d, "C", "Lz", "Uz"),
			}
		}, []bool{true, true, true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := xyzDDB()
			txns := c.txns(d)
			svc := New(d, Options{})
			var live []*model.Transaction
			for i, txn := range txns {
				res, err := svc.Admit(ctx, txn)
				if err != nil {
					t.Fatal(err)
				}
				if res.Admitted != c.want[i] {
					t.Fatalf("Admit(%s) = %v (%s), want %v", txn.Name(), res.Admitted, res.Reason, c.want[i])
				}
				checkBrute(t, d, live, txn, res.Admitted)
				if res.Admitted {
					live = append(live, txn)
				}
			}
			if st := svc.Stats(); st.Live != len(live) {
				t.Fatalf("Stats.Live = %d, want %d", st.Live, len(live))
			}
		})
	}
}

func TestRejectionCarriesViolation(t *testing.T) {
	d := xyzDDB()
	svc := New(d, Options{})
	txns := ringTxns(d)
	for _, txn := range txns[:2] {
		if res, _ := svc.Admit(ctx, txn); !res.Admitted {
			t.Fatalf("%s unexpectedly rejected", txn.Name())
		}
	}
	res, _ := svc.Admit(ctx, txns[2])
	if res.Admitted {
		t.Fatal("ring-closing class admitted")
	}
	if res.Violation == nil {
		t.Fatal("cycle rejection carries no Theorem 4 violation")
	}
	if len(res.Violation.Cycle) != 3 {
		t.Fatalf("violation cycle %v, want length 3", res.Violation.Cycle)
	}
}

func TestEvictReopensAdmission(t *testing.T) {
	d := xyzDDB()
	svc := New(d, Options{})
	txns := ringTxns(d)
	svc.Admit(ctx, txns[0])
	svc.Admit(ctx, txns[1])
	if res, _ := svc.Admit(ctx, txns[2]); res.Admitted {
		t.Fatal("C admitted into a ring")
	}
	if !svc.Evict("A") {
		t.Fatal("Evict(A) = false")
	}
	if svc.Evict("A") {
		t.Fatal("double eviction reported true")
	}
	// Without A the ring cannot close: C now fits.
	res, _ := svc.Admit(ctx, txns[2])
	if !res.Admitted {
		t.Fatalf("C rejected after evicting A: %s", res.Reason)
	}
	checkBrute(t, d, []*model.Transaction{txns[1]}, txns[2], true)
	snap := svc.Snapshot()
	if snap.N() != 2 {
		t.Fatalf("snapshot has %d classes, want 2", snap.N())
	}
	if ok, _ := core.SystemSafeDF(snap); !ok {
		t.Fatal("snapshot not certified")
	}
}

func TestVerdictCacheSurvivesChurn(t *testing.T) {
	d := xyzDDB()
	svc := New(d, Options{})
	txns := orderedTxns(d)
	for _, txn := range txns {
		svc.Admit(ctx, txn)
	}
	before := svc.Stats()
	if before.PairChecks == 0 {
		t.Fatal("no pair checks recorded on cold admissions")
	}
	// Churn C out and back in: its pair verdicts against A and B are cached
	// by fingerprint, so re-admission must cost zero new PairSafeDF
	// evaluations.
	svc.Evict("C")
	res, _ := svc.Admit(ctx, txns[2])
	if !res.Admitted {
		t.Fatalf("re-admission rejected: %s", res.Reason)
	}
	after := svc.Stats()
	if after.PairChecks != before.PairChecks {
		t.Fatalf("re-admission evaluated %d new pairs, want 0 (cache)", after.PairChecks-before.PairChecks)
	}
	if after.CacheHits <= before.CacheHits {
		t.Fatal("re-admission recorded no cache hits")
	}
}

func TestAdmitBatch(t *testing.T) {
	d := xyzDDB()
	svc := New(d, Options{})
	rs, err := svc.AdmitBatch(ctx, ringTxns(d))
	if err != nil {
		t.Fatal(err)
	}
	got := []bool{rs[0].Admitted, rs[1].Admitted, rs[2].Admitted}
	if !got[0] || !got[1] || got[2] {
		t.Fatalf("batch decisions = %v, want [true true false]", got)
	}
	// One rejected class must not block the rest: the live set is A, B.
	if st := svc.Stats(); st.Live != 2 {
		t.Fatalf("Stats.Live = %d, want 2", st.Live)
	}
	if ok, _ := core.SystemSafeDF(svc.Snapshot()); !ok {
		t.Fatal("post-batch snapshot not certified")
	}
}

func TestDuplicateClassRejected(t *testing.T) {
	d := xyzDDB()
	svc := New(d, Options{})
	a := chainTxn(d, "A", "Lx", "Ux")
	svc.Admit(ctx, a)
	res, _ := svc.Admit(ctx, chainTxn(d, "A", "Ly", "Uy"))
	if res.Admitted || !strings.Contains(res.Reason, "already admitted") {
		t.Fatalf("duplicate admission = %+v", res)
	}
}

func TestAdmitCancelledContext(t *testing.T) {
	d := xyzDDB()
	svc := New(d, Options{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Admit(cancelled, chainTxn(d, "A", "Lx", "Ux")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Admit under a cancelled context = %v, want context.Canceled", err)
	}
	if st := svc.Stats(); st.Live != 0 || st.Admitted != 0 {
		t.Fatalf("cancelled admission mutated the certified set: %+v", st)
	}
	// The service stays usable after a cancelled decision.
	res, err := svc.Admit(ctx, chainTxn(d, "A", "Lx", "Ux"))
	if err != nil || !res.Admitted {
		t.Fatalf("admission after a cancellation: %+v, %v", res, err)
	}
}

func TestForeignDDBRejected(t *testing.T) {
	svc := New(xyzDDB(), Options{})
	other := xyzDDB()
	if _, err := svc.Admit(ctx, chainTxn(other, "A", "Lx", "Ux")); err == nil {
		t.Fatal("foreign-DDB class accepted without error")
	}
}

func TestCycleBudgetRejectsConservatively(t *testing.T) {
	d := xyzDDB()
	svc := New(d, Options{CycleBudget: 0}) // unlimited: baseline
	txns := ringTxns(d)
	svc.Admit(ctx, txns[0])
	svc.Admit(ctx, txns[1])

	tight := New(d, Options{CycleBudget: 1})
	tight.Admit(ctx, txns[0])
	tight.Admit(ctx, txns[1])
	// Closing the ring needs exactly one cycle check, which fits the
	// budget, so the genuine violation is still found.
	res, _ := tight.Admit(ctx, txns[2])
	if res.Admitted {
		t.Fatal("violating class admitted under budget")
	}
	if res.Violation == nil {
		t.Fatalf("budget pre-empted a findable violation: %s", res.Reason)
	}
	// The live set always stays certified, budget or not.
	if ok, _ := core.SystemSafeDF(tight.Snapshot()); !ok {
		t.Fatal("budgeted snapshot not certified")
	}
}

// TestMultiplicityCatchesSelfDeadlock: a class whose two Lock nodes are
// incomparable is fine alone but two concurrent copies of it can deadlock
// each other — certifying for Multiplicity 2 must reject it (Corollary 3),
// in agreement with both TwoCopiesSafeDF and the brute oracle.
func TestMultiplicityCatchesSelfDeadlock(t *testing.T) {
	d := xyzDDB()
	mk := func(name string) *model.Transaction {
		b := model.NewBuilder(d, name)
		lx, ux := b.LockUnlock("x")
		ly, uy := b.LockUnlock("y")
		b.Arc(lx, uy)
		b.Arc(ly, ux) // Lx and Ly incomparable: a copy can grab them opposed
		return b.MustFreeze()
	}
	if core.TwoCopiesSafeDF(mk("probe")) {
		t.Fatal("fixture unexpectedly passes Corollary 3")
	}

	solo := New(d, Options{})
	if res, _ := solo.Admit(ctx, mk("A")); !res.Admitted {
		t.Fatalf("single-instance admission rejected: %s", res.Reason)
	}

	dual := New(d, Options{Multiplicity: 2})
	res, _ := dual.Admit(ctx, mk("A"))
	if res.Admitted {
		t.Fatal("self-deadlocking class admitted at Multiplicity 2")
	}
	// Cross-check with the exhaustive oracle on two actual copies.
	sys := model.MustCopies(mk("oracle"), 2)
	want, _, err := core.IsSafeAndDeadlockFreeBrute(sys, core.BruteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want {
		t.Fatal("brute oracle disagrees: two copies are certifiable")
	}
}

// TestMultiplicityAgreesWithCopiesSafeDF drives single-class admissions at
// several multiplicities against Theorem 5's dedicated copies test,
// including Figure 6 (deadlock-free in two copies yet not SAFE in two — so
// every multiplicity >= 2 must reject it).
func TestMultiplicityAgreesWithCopiesSafeDF(t *testing.T) {
	fig6 := figures.Fig6()
	d2 := xyzDDB()
	ordered := chainTxn(d2, "O", "Lx", "Ly", "Ux", "Uy")
	for _, c := range []struct {
		name string
		txn  *model.Transaction
	}{{"fig6", fig6}, {"ordered", ordered}} {
		for _, m := range []int{1, 2, 3} {
			svc := New(c.txn.DDB(), Options{Multiplicity: m})
			res, err := svc.Admit(ctx, c.txn)
			if err != nil {
				t.Fatal(err)
			}
			want := core.CopiesSafeDF(c.txn, m)
			if res.Admitted != want {
				t.Fatalf("%s at multiplicity %d: admitted=%v, CopiesSafeDF=%v (%s)",
					c.name, m, res.Admitted, want, res.Reason)
			}
		}
	}
}

// streamFingerprint is FingerprintOf written against a streaming hash, one
// 8-byte word per Write: the digest the buffered version must reproduce.
func streamFingerprint(t *model.Transaction) Fingerprint {
	h := sha256.New()
	put := func(x int) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(t.N())
	for id := 0; id < t.N(); id++ {
		nd := t.Node(model.NodeID(id))
		put(int(nd.Kind))
		put(int(nd.Mode))
		put(int(nd.Entity))
	}
	for u := 0; u < t.N(); u++ {
		for _, v := range t.Out(model.NodeID(u)) {
			put(u)
			put(v)
		}
	}
	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}

// TestFingerprintMatchesStreamingDigest: FingerprintOf hashes one buffered
// byte stream and must give the streaming digest, on classes small enough
// for its stack buffer and on classes that outgrow it.
func TestFingerprintMatchesStreamingDigest(t *testing.T) {
	var corpus []*model.Transaction
	for seed := int64(0); seed < 10; seed++ {
		for _, cfg := range []workload.Config{
			{Sites: 4, EntitiesPerSite: 3, NumTxns: 6, EntitiesPerTxn: 3, Policy: workload.PolicyChurn, CrossArcProb: 0.4, ReadFraction: 0.3},
			{Sites: 4, EntitiesPerSite: 40, NumTxns: 2, EntitiesPerTxn: 70, Policy: workload.PolicyRandom, ReadFraction: 0.5},
		} {
			cfg.Seed = seed
			corpus = append(corpus, workload.MustGenerate(cfg).Txns...)
		}
	}
	corpus = append(corpus, figures.Fig6(), chainTxn(xyzDDB(), "empty"))
	big := 0
	for _, tx := range corpus {
		if got, want := FingerprintOf(tx), streamFingerprint(tx); got != want {
			t.Fatalf("%v: FingerprintOf = %x, streaming digest %x", tx, got, want)
		}
		if 8*(1+3*tx.N()) > 512 { // the node words alone outgrow the stack buffer
			big++
		}
	}
	if big == 0 {
		t.Fatal("no class outgrows the stack buffer")
	}
}
