// Package distlock is a from-scratch implementation of
//
//	Ouri Wolfson and Mihalis Yannakakis,
//	"Deadlock-Freedom (and Safety) of Transactions in a Distributed
//	Database", PODS 1985 (full version: JCSS 33, 161–178, 1986),
//
// covering the model of distributed locked transactions (partial orders of
// Lock/Unlock operations over entities partitioned into sites), the
// deadlock-prefix characterization (Theorem 1), the coNP-hardness gadget
// (Theorem 2), the polynomial safe-and-deadlock-free tests for pairs
// (Theorem 3), copies (Corollary 3 / Theorem 5), and many transactions
// (Theorem 4) — plus exhaustive oracles and a discrete-event
// distributed-DB simulator for experiments.
//
// The centre of the public API is the long-lived LockService: clients
// register transaction classes (Register runs the incremental Theorem 3/4
// admission and pins each class to the certified no-deadlock-handling tier
// or the two-phase fallback tier) and then drive their own transactions
// step-by-step through Sessions, with context cancellation propagated into
// every blocking lock wait. The static tests (PairSafeDF, SystemSafeDF,
// ...) remain available directly for offline certification.
//
// # Quick start
//
//	db := distlock.NewDDB()
//	db.MustEntity("x", "site1")
//	db.MustEntity("y", "site2")
//
//	b := distlock.NewBuilder(db, "T1")
//	lx := b.Lock("x")
//	ly := b.Lock("y")
//	ux := b.Unlock("x")
//	uy := b.Unlock("y")
//	b.Chain(lx, ly, ux, uy)
//	t1 := b.MustFreeze()
//
//	svc, _ := distlock.Open(db)
//	defer svc.Close()
//
//	res, _ := svc.Register(ctx, t1)  // Theorem 3/4 admission
//	fmt.Println(res.Admitted)        // true: runs with NO deadlock handling
//
//	sess, _ := svc.Begin(ctx, "T1")  // one transaction instance
//	sess.LockExclusive(ctx, "x")     // blocks until granted or ctx cancelled
//	sess.LockExclusive(ctx, "y")
//	sess.Unlock("x")
//	sess.Unlock("y")
//	sess.Commit()
//
// The rest of this file re-exports the model types and static tests from
// the internal/... packages; see DESIGN.md for the full inventory.
package distlock

import (
	"distlock/internal/admission"
	"distlock/internal/baseline"
	"distlock/internal/core"
	"distlock/internal/model"
	"distlock/internal/optimize"
	"distlock/internal/reduction"
	"distlock/internal/sat"
	"distlock/internal/schedule"
	"distlock/internal/sim"
	"distlock/internal/workload"
)

// Model types.
type (
	// DDB is a distributed database: entities partitioned into sites.
	DDB = model.DDB
	// Transaction is an immutable locked transaction (a partial order of
	// Lock/Unlock nodes, same-site nodes totally ordered).
	Transaction = model.Transaction
	// Builder constructs transactions.
	Builder = model.Builder
	// System is a set of transactions over one DDB.
	System = model.System
	// Prefix is a downward-closed subset of a transaction's nodes.
	Prefix = model.Prefix
	// EntityID identifies a database entity.
	EntityID = model.EntityID
	// SiteID identifies a database site.
	SiteID = model.SiteID
	// NodeID identifies an operation node within a transaction.
	NodeID = model.NodeID
	// Op is one operation (kind + entity) of a transaction; clients driving
	// sessions read them via Transaction.Order and Transaction.Node.
	Op = model.Node
	// OpKind distinguishes Lock from Unlock operations.
	OpKind = model.OpKind
	// Mode is the access mode of a Lock: Exclusive (write) or Shared
	// (read). Builders declare it per lock step (Builder.LockShared /
	// LockMode), the static tests certify conflict-aware (R/W and W/W
	// conflict, R/R does not), and sessions acquire in it.
	Mode = model.Mode
)

const (
	// LockOp is the "Lx" instruction: acquire the lock on entity x.
	LockOp = model.LockOp
	// UnlockOp is the "Ux" instruction: release the lock on entity x.
	UnlockOp = model.UnlockOp
	// Exclusive is the write lock mode: excludes every other holder. The
	// zero value — the paper's original model is the all-exclusive case.
	Exclusive = model.Exclusive
	// Shared is the read lock mode: any number of shared holders overlap;
	// only an exclusive access conflicts.
	Shared = model.Shared
)

// Model constructors.
var (
	// NewDDB returns an empty distributed database.
	NewDDB = model.NewDDB
	// NewBuilder starts building a transaction over a DDB.
	NewBuilder = model.NewBuilder
	// NewSystem bundles transactions into a system.
	NewSystem = model.NewSystem
	// Copies builds a system of d syntactic copies of a transaction.
	Copies = model.Copies
	// CommonEntities returns R(T1) ∩ R(T2).
	CommonEntities = model.CommonEntities
	// ConflictingEntities returns the common entities two transactions
	// CONFLICT on (at least one side locks exclusively) — the interaction
	// set of the conflict-aware static tests.
	ConflictingEntities = model.ConflictingEntities
)

// Schedule machinery.
type (
	// Step is one operation of a schedule.
	Step = schedule.Step
	// Exec is a replayable execution state of a partial schedule.
	Exec = schedule.Exec
	// ReductionGraph is the paper's R(A′).
	ReductionGraph = schedule.ReductionGraph
)

var (
	// Replay validates a step sequence as a legal partial schedule.
	Replay = schedule.Replay
	// IsSerializable tests a complete schedule via D(S) acyclicity.
	IsSerializable = schedule.IsSerializable
	// NewReductionGraph builds R(A′) from per-transaction prefixes.
	NewReductionGraph = schedule.NewReductionGraph
)

// Static analysis — the paper's contribution.
type (
	// PairReport explains a Theorem 3 verdict.
	PairReport = core.PairReport
	// MultiViolation witnesses a Theorem 4 failure.
	MultiViolation = core.MultiViolation
	// BruteOptions bounds the exhaustive oracles.
	BruteOptions = core.BruteOptions
)

var (
	// PairSafeDF is Theorem 3: O(n²) safe-and-deadlock-free test for two
	// distributed transactions.
	PairSafeDF = core.PairSafeDF
	// PairSafeDFMinimalPrefix is the O(n³) Section 5 algorithm.
	PairSafeDFMinimalPrefix = core.PairSafeDFMinimalPrefix
	// TwoCopiesSafeDF is Corollary 3.
	TwoCopiesSafeDF = core.TwoCopiesSafeDF
	// CopiesSafeDF is Theorem 5.
	CopiesSafeDF = core.CopiesSafeDF
	// SystemSafeDF is Theorem 4: polynomial in the number of interaction-
	// graph cycles.
	SystemSafeDF = core.SystemSafeDF
	// PairEvalCount reads the process-wide counter of PairSafeDF
	// evaluations — compare certification strategies by pairwise work.
	PairEvalCount = core.PairEvalCount
	// FindDeadlock searches exhaustively for a reachable deadlock.
	FindDeadlock = core.FindDeadlock
	// FindDeadlockPrefix searches exhaustively for a Theorem 1 deadlock
	// prefix.
	FindDeadlockPrefix = core.FindDeadlockPrefix
	// IsSafeAndDeadlockFreeBrute is the Lemma 1 exhaustive oracle.
	IsSafeAndDeadlockFreeBrute = core.IsSafeAndDeadlockFreeBrute
	// TirriDeadlockFree is the (flawed) baseline test from [T].
	TirriDeadlockFree = baseline.TirriDeadlockFree
	// CentralizedPairSafeDF is Lemma 2 for total orders.
	CentralizedPairSafeDF = baseline.CentralizedPairSafeDF
)

// Theorem 2 reduction.
type (
	// Formula is a CNF formula; the reduction needs 3SAT' form.
	Formula = sat.Formula
	// Gadget is the two-transaction system encoding a 3SAT' formula.
	Gadget = reduction.Gadget
)

var (
	// BuildGadget constructs the Theorem 2 gadget from a 3SAT' formula.
	BuildGadget = reduction.Build
	// SolveSAT decides satisfiability by DPLL.
	SolveSAT = sat.Solve
)

// Runtime experimentation.
type (
	// SimConfig parameterizes the discrete-event simulator.
	SimConfig = sim.Config
	// SimMetrics summarize a simulation run.
	SimMetrics = sim.Metrics
)

var (
	// RunSim executes a deterministic discrete-event simulation.
	RunSim = sim.Run
)

// Online admission control — a live certified set under churn. The
// LockService (service.go) embeds an Admission; use these directly only
// for admission decisions without a serving runtime.
type (
	// Admission is the long-lived admission-control service: it maintains
	// a certified safe-and-deadlock-free transaction mix and decides
	// online, by incremental Theorem 3/4 checks, whether new classes join.
	Admission = admission.Service
	// AdmissionOptions parameterizes the service (cycle budget,
	// multiplicity).
	AdmissionOptions = admission.Options
	// AdmissionStats are the service's cumulative work counters.
	AdmissionStats = admission.Stats
	// AdmitResult reports one admission decision.
	AdmitResult = admission.Result
	// ClassFingerprint is the structural hash keying the pair-verdict
	// cache.
	ClassFingerprint = admission.Fingerprint
)

var (
	// NewAdmission creates an admission service over one DDB.
	NewAdmission = admission.New
	// FingerprintClass computes a transaction's structural fingerprint.
	FingerprintClass = admission.FingerprintOf
)

// Workload generation.
type (
	// WorkloadConfig parameterizes random system generation.
	WorkloadConfig = workload.Config
	// WorkloadPolicy selects the locking discipline of generated
	// transactions.
	WorkloadPolicy = workload.Policy
	// ChurnEvent is one arrival or departure of a churn trace.
	ChurnEvent = workload.ChurnEvent
)

const (
	// PolicyRandom generates arbitrary well-formed transactions.
	PolicyRandom = workload.PolicyRandom
	// PolicyTwoPhase generates two-phase transactions (safe, may deadlock).
	PolicyTwoPhase = workload.PolicyTwoPhase
	// PolicyOrdered generates globally lock-ordered two-phase transactions.
	PolicyOrdered = workload.PolicyOrdered
	// PolicyChurn mixes ordered and arbitrary shapes, modelling the
	// heterogeneous traffic an admission service sees.
	PolicyChurn = workload.PolicyChurn
	// PolicyZipf generates ordered two-phase transactions whose entities
	// follow a Zipf hot-entity distribution (WorkloadConfig.ZipfS) — the
	// contention-heavy regime for benchmarking lock-table backends.
	PolicyZipf = workload.PolicyZipf
)

var (
	// GenerateWorkload builds a random transaction system.
	GenerateWorkload = workload.Generate
	// ChurnTrace generates a deterministic arrival/departure sequence for
	// admission experiments.
	ChurnTrace = workload.ChurnTrace
)

// Optimization — the application the paper's introduction cites ([W2]).
type (
	// OptimizeResult reports an early-unlock optimization.
	OptimizeResult = optimize.Result
)

var (
	// EarlyUnlock hoists Unlock operations while preserving safety and
	// deadlock-freedom (re-verified with Theorem 4 after every move).
	EarlyUnlock = optimize.EarlyUnlock
	// HoldingCost is the schedule-independent lock-holding metric the
	// optimizer reduces.
	HoldingCost = optimize.HoldingCost
)
