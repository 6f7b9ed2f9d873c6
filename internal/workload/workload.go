// Package workload generates random distributed databases and locked
// transaction systems for tests, experiments, and benchmarks. All
// generators are deterministic given a seed: each generator owns a
// math/rand/v2 PCG stream seeded from its config, so generation never
// contends on a shared global rand lock.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"distlock/internal/model"
)

// Policy selects the locking discipline of generated transactions.
type Policy int

const (
	// PolicyRandom produces arbitrary well-formed transactions: per-site
	// chains of Lock/Unlock steps where an entity may be unlocked at any
	// point after its lock. Systems generated this way are frequently
	// unsafe and deadlock-prone — ideal for exercising the checkers.
	PolicyRandom Policy = iota
	// PolicyTwoPhase makes every Lock precede every Unlock (two-phase
	// locking). Two-phase systems are always safe but may deadlock.
	PolicyTwoPhase
	// PolicyOrdered is two-phase locking with locks acquired in global
	// entity order; classically both safe and deadlock-free.
	PolicyOrdered
	// PolicyChurn models the heterogeneous traffic an admission-control
	// service sees: each transaction is independently either ordered
	// two-phase (usually certifiable) or arbitrarily shaped (frequently
	// rejectable), so a churn stream exercises both admission outcomes.
	PolicyChurn
	// PolicyZipf is PolicyOrdered with hot-entity skew: each transaction's
	// entities are drawn from a Zipf distribution over the entity space
	// (entity e0 hottest, weight (i+1)^-s, s = Config.ZipfS), instead of
	// uniformly. The shape stays ordered two-phase — certifiable, so the
	// traffic lands on the certified no-deadlock-handling tier — but a few
	// entities carry most of the lock traffic, which is the regime that
	// tests a lock table: hot-entity traffic must not serialize the
	// independent entities beside it.
	PolicyZipf
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyRandom:
		return "random"
	case PolicyTwoPhase:
		return "two-phase"
	case PolicyOrdered:
		return "ordered"
	case PolicyChurn:
		return "churn"
	case PolicyZipf:
		return "zipf"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterizes system generation.
type Config struct {
	Sites           int
	EntitiesPerSite int
	NumTxns         int
	// EntitiesPerTxn is the number of distinct entities each transaction
	// accesses (capped at the total entity count).
	EntitiesPerTxn int
	Policy         Policy
	// CrossArcProb adds extra cross-site precedence arcs with this
	// probability per adjacent pair of per-site chains (PolicyRandom only).
	CrossArcProb float64
	// ZipfS is the skew exponent of PolicyZipf (entity i drawn with weight
	// proportional to (i+1)^-s). Larger is hotter; 0 means DefaultZipfS.
	ZipfS float64
	// ReadFraction is the probability that each generated lock step is a
	// SHARED (read) lock instead of exclusive. 0 — the default — is the
	// paper's all-exclusive model. At 0.9 a mix is read-heavy: most
	// accesses are shared, so under conflict-aware certification most
	// lock-table traffic can overlap. Applies to every policy (each
	// accessed entity draws its mode independently).
	ReadFraction float64
	Seed         int64
}

// DefaultZipfS is the PolicyZipf skew exponent used when Config.ZipfS is
// unset: skewed enough that a handful of entities dominate, shallow enough
// that transactions still touch the tail.
const DefaultZipfS = 1.2

// NewDDB builds the database of a config: sites "s0".."sK" with entities
// "e0".."eN" assigned round-robin.
func NewDDB(cfg Config) *model.DDB {
	d := model.NewDDB()
	total := cfg.Sites * cfg.EntitiesPerSite
	for i := 0; i < total; i++ {
		site := fmt.Sprintf("s%d", i%cfg.Sites)
		d.MustEntity(fmt.Sprintf("e%d", i), site)
	}
	return d
}

// Generate builds a random transaction system under the config.
func Generate(cfg Config) (*model.System, error) {
	if cfg.Sites < 1 || cfg.EntitiesPerSite < 1 || cfg.NumTxns < 1 {
		return nil, fmt.Errorf("workload: invalid config %+v", cfg)
	}
	rng := rand.New(newPCG(cfg.Seed))
	d := NewDDB(cfg)
	txns := make([]*model.Transaction, cfg.NumTxns)
	for i := range txns {
		t, err := RandomTransaction(d, fmt.Sprintf("T%d", i+1), cfg, rng)
		if err != nil {
			return nil, err
		}
		txns[i] = t
	}
	return model.NewSystem(d, txns...)
}

// MustGenerate is Generate that panics on error.
func MustGenerate(cfg Config) *model.System {
	s, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// RandomTransaction builds one random well-formed transaction accessing
// cfg.EntitiesPerTxn distinct entities of d.
func RandomTransaction(d *model.DDB, name string, cfg Config, rng *rand.Rand) (*model.Transaction, error) {
	total := d.NumEntities()
	k := cfg.EntitiesPerTxn
	if k > total {
		k = total
	}
	if k < 1 {
		k = 1
	}
	var ents []model.EntityID
	if cfg.Policy == PolicyZipf {
		ents = zipfEntities(rng, total, k, cfg.ZipfS)
	} else {
		perm := rng.Perm(total)[:k]
		ents = make([]model.EntityID, k)
		for i, p := range perm {
			ents[i] = model.EntityID(p)
		}
	}

	modes := drawModes(ents, cfg.ReadFraction, rng)
	switch cfg.Policy {
	case PolicyOrdered, PolicyZipf:
		return orderedTwoPhase(d, name, ents, modes, rng, true)
	case PolicyTwoPhase:
		return orderedTwoPhase(d, name, ents, modes, rng, false)
	case PolicyChurn:
		if rng.IntN(2) == 0 {
			return orderedTwoPhase(d, name, ents, modes, rng, true)
		}
		return randomShaped(d, name, ents, modes, cfg.CrossArcProb, rng)
	default:
		return randomShaped(d, name, ents, modes, cfg.CrossArcProb, rng)
	}
}

// drawModes assigns each accessed entity a lock mode: shared with
// probability readFraction, exclusive otherwise. A zero fraction returns
// nil (all exclusive) without consuming randomness, so pre-mode seeds
// reproduce byte-identical systems.
func drawModes(ents []model.EntityID, readFraction float64, rng *rand.Rand) map[model.EntityID]model.Mode {
	if readFraction <= 0 {
		return nil
	}
	m := make(map[model.EntityID]model.Mode, len(ents))
	for _, e := range ents {
		if rng.Float64() < readFraction {
			m[e] = model.Shared
		} else {
			m[e] = model.Exclusive
		}
	}
	return m
}

// zipfCums memoizes the cumulative Zipf weights per (total, s): the table
// depends only on the entity count and the exponent, both fixed across a
// generation run, so rebuilding the O(total) prefix sums (and their
// math.Pow calls) per transaction would waste NumTxns× the work. The
// cached slices are read-only after construction.
var zipfCums sync.Map // struct{ total int; s float64 } -> []float64

// zipfCum returns (cached) cum[i] = sum of (j+1)^-s for j <= i.
func zipfCum(total int, s float64) []float64 {
	key := struct {
		total int
		s     float64
	}{total, s}
	if cum, ok := zipfCums.Load(key); ok {
		return cum.([]float64)
	}
	cum := make([]float64, total)
	sum := 0.0
	for i := 0; i < total; i++ {
		sum += math.Pow(float64(i+1), -s)
		cum[i] = sum
	}
	actual, _ := zipfCums.LoadOrStore(key, cum)
	return actual.([]float64)
}

// zipfEntities draws k distinct entities from a Zipf distribution over
// [0, total): entity i has weight (i+1)^-s, so low-numbered entities are
// hot. (math/rand/v2 has no Zipf generator, so sample the cumulative
// weights by binary search and reject duplicates — k is small relative to
// total in every workload we generate, so rejection is cheap.)
func zipfEntities(rng *rand.Rand, total, k int, s float64) []model.EntityID {
	if s <= 0 {
		s = DefaultZipfS
	}
	if k >= total {
		out := make([]model.EntityID, total)
		for i := range out {
			out[i] = model.EntityID(i)
		}
		return out
	}
	cum := zipfCum(total, s)
	sum := cum[total-1]
	seen := make(map[model.EntityID]bool, k)
	out := make([]model.EntityID, 0, k)
	for len(out) < k {
		u := rng.Float64() * sum
		e := model.EntityID(sort.SearchFloat64s(cum, u))
		if int(e) >= total { // u == sum edge
			e = model.EntityID(total - 1)
		}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// orderedTwoPhase builds a chain: all locks (in entity-ID order when
// ordered, else shuffled), then all unlocks in random order. A nil modes
// map means all-exclusive.
func orderedTwoPhase(d *model.DDB, name string, ents []model.EntityID, modes map[model.EntityID]model.Mode, rng *rand.Rand, ordered bool) (*model.Transaction, error) {
	locks := append([]model.EntityID(nil), ents...)
	if ordered {
		sortEntityIDs(locks)
	} else {
		rng.Shuffle(len(locks), func(i, j int) { locks[i], locks[j] = locks[j], locks[i] })
	}
	unlocks := append([]model.EntityID(nil), ents...)
	rng.Shuffle(len(unlocks), func(i, j int) { unlocks[i], unlocks[j] = unlocks[j], unlocks[i] })

	b := model.NewBuilder(d, name)
	var prev model.NodeID = -1
	add := func(id model.NodeID) {
		if prev >= 0 {
			b.Arc(prev, id)
		}
		prev = id
	}
	for _, e := range locks {
		add(b.LockMode(d.EntityName(e), modes[e]))
	}
	for _, e := range unlocks {
		add(b.Unlock(d.EntityName(e)))
	}
	return b.Freeze()
}

// randomShaped builds per-site chains: the entities at each site form a
// totally ordered chain of steps where each Lock is placed before its
// Unlock but unlocks may interleave with later locks. Chains at different
// sites run in parallel, optionally tied together by random cross-site
// arcs.
func randomShaped(d *model.DDB, name string, ents []model.EntityID, modes map[model.EntityID]model.Mode, crossProb float64, rng *rand.Rand) (*model.Transaction, error) {
	bySite := map[model.SiteID][]model.EntityID{}
	for _, e := range ents {
		s := d.SiteOf(e)
		bySite[s] = append(bySite[s], e)
	}
	b := model.NewBuilder(d, name)
	var chains [][]model.NodeID
	var sites []model.SiteID
	for s := range bySite {
		sites = append(sites, s)
	}
	sortSiteIDs(sites)
	for _, s := range sites {
		se := bySite[s]
		rng.Shuffle(len(se), func(i, j int) { se[i], se[j] = se[j], se[i] })
		// Build a random L/U interleaving: walk entities, keeping a set of
		// locked-but-not-unlocked ones; at each step either lock the next
		// entity or unlock a held one.
		var seq []model.NodeID
		held := []model.EntityID{}
		next := 0
		for next < len(se) || len(held) > 0 {
			lockPossible := next < len(se)
			unlockPossible := len(held) > 0
			doLock := lockPossible && (!unlockPossible || rng.IntN(2) == 0)
			if doLock {
				seq = append(seq, b.LockMode(d.EntityName(se[next]), modes[se[next]]))
				held = append(held, se[next])
				next++
			} else {
				i := rng.IntN(len(held))
				e := held[i]
				held = append(held[:i], held[i+1:]...)
				seq = append(seq, b.Unlock(d.EntityName(e)))
			}
		}
		b.Chain(seq...)
		chains = append(chains, seq)
	}
	// Random cross-site arcs from earlier chains into later ones (always
	// forward so the graph stays acyclic).
	for i := 0; i+1 < len(chains); i++ {
		if rng.Float64() < crossProb {
			from := chains[i][rng.IntN(len(chains[i]))]
			to := chains[i+1][rng.IntN(len(chains[i+1]))]
			b.Arc(from, to)
		}
	}
	return b.Freeze()
}

// newPCG builds the package's deterministic per-generator stream from an
// int64 seed (the second word is a fixed odd constant so distinct seeds
// stay distinct streams).
func newPCG(seed int64) *rand.PCG {
	return rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)
}

// CopiesOf generates d copies of a fresh random transaction.
func CopiesOf(cfg Config, d int) (*model.System, error) {
	rng := rand.New(newPCG(cfg.Seed))
	db := NewDDB(cfg)
	t, err := RandomTransaction(db, "T", cfg, rng)
	if err != nil {
		return nil, err
	}
	return model.Copies(t, d)
}

func sortEntityIDs(xs []model.EntityID) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func sortSiteIDs(xs []model.SiteID) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// LockArcOnlySystem builds numTxns transactions over k entities (one per
// site) in the shape of Theorem 2's gadget: every transaction accesses
// every entity, and all precedence arcs run from a Lock node to an Unlock
// node (density arcProb per ordered entity pair). Such systems maximize
// parallelism — every set of Lock nodes is a reachable prefix — which is
// exactly the regime where exhaustive deadlock search blows up
// exponentially.
func LockArcOnlySystem(k, numTxns int, arcProb float64, seed int64) *model.System {
	rng := rand.New(newPCG(seed))
	d := model.NewDDB()
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("e%d", i)
		d.MustEntity(names[i], "s"+names[i])
	}
	txns := make([]*model.Transaction, numTxns)
	for t := range txns {
		b := model.NewBuilder(d, fmt.Sprintf("T%d", t+1))
		locks := make([]model.NodeID, k)
		unlocks := make([]model.NodeID, k)
		for i, n := range names {
			locks[i], unlocks[i] = b.LockUnlock(n)
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j && rng.Float64() < arcProb {
					b.Arc(locks[i], unlocks[j])
				}
			}
		}
		txn, err := b.Freeze()
		if err != nil {
			panic(err)
		}
		txns[t] = txn
	}
	return model.MustSystem(d, txns...)
}
