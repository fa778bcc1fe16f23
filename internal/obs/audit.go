package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/nbac"
)

// The live NBAC auditor. It ingests per-process audit records — votes,
// decisions, decide-path annotations — emitted by the live runtime
// (live.Instance), plus its timing observations (every protocol
// envelope sent and handled, every timer handler's lag), and continuously evaluates the same property predicates the simulator
// checks (internal/nbac: one shared implementation) against every
// observed transaction. A violated property fires ReportAnomaly, so it
// arrives with the causally ordered flight-recorder dump.
//
// Anomaly kinds fired by the auditor:
//
//	audit-agreement    two processes decided differently
//	audit-stability    one process decided twice, differently
//	audit-validity     a decision contradicts the vote vector for the
//	                   transaction's observed execution class
//	audit-termination  all processes decided, but the vote→decision HLC
//	                   span exceeded terminationFactor × U
//
// Execution-class honesty: the paper's validity property only forbids
// an all-yes abort in failure-free executions, and a live run cannot
// prove a negative — so a transaction is classified failure-free only
// when every protocol envelope sent was
// handled by the time the last process decided, and the timing slack,
// taken together, stayed under the bound U: the largest delay from a
// send to the receiver's handler, plus the spread of the votes (the
// paper's model starts all processes together), plus the longest a
// timer handler finished behind its deadline or a start handler took
// (nor are its processes ever slow). A message handled after a deadline armed in multiples of U
// means those three add up to U at least: the receiver's timer is U
// past a start at most one spread before the sender's, and the sender
// sent at most one lag late. Anything else is audited under the
// network-failure column of the protocol's contract, which keeps the
// auditor free of false positives — on a saturated host too, where a
// delivery can wait its turn longer than U — while the class-independent
// checks (agreement, stability, commit-despite-a-no) stay fully armed.

// AuditorConfig parameterizes NewAuditor. The zero value is usable.
type AuditorConfig struct {
	// Contracts maps protocol labels to their property contracts (the
	// registry's Table 1 cells). A transaction whose label has no entry
	// is audited under a conservative agreement+validity contract.
	Contracts map[string]nbac.Contract
}

// terminationFactor bounds a transaction's vote→decision HLC span at
// terminationFactor × U before audit-termination fires: the client's own
// bound on a commit, 128 U.
const terminationFactor = 128

// maxAuditTxns bounds the auditor's memory: beyond it the oldest
// transaction is evicted (counted Incomplete if not fully decided).
const maxAuditTxns = 8192

// defaultContract audits transactions of unknown protocols: agreement
// and validity in every class — safe for any atomic commit protocol,
// since validity's abort clause self-relaxes outside failure-free runs.
var defaultContract = nbac.Contract{Name: "unknown", CF: nbac.PropsAV, NF: nbac.PropsAV}

// auditTxn accumulates one transaction's records around the embedded
// shared execution record that the predicates run against.
type auditTxn struct {
	exec  nbac.Execution
	votes map[core.ProcessID]core.Value
	paths map[core.ProcessID]string
	label string
	u     time.Duration // the transaction's configured bound U

	firstVote HLC // earliest vote stamp (span + vote-spread measurement)
	lastVote  HLC
	lastDec   HLC
	maxDelay  time.Duration // largest delay from an envelope's send to its handler
	maxLag    time.Duration // longest a timer handler ran behind its deadline
	inflight  int           // protocol envelopes sent and not handled yet

	done     bool
	reported map[string]bool // anomaly kinds already fired for this txn
}

// Auditor is the live NBAC property auditor. All methods are safe for
// concurrent use; install it with SetAuditor to start receiving records.
type Auditor struct {
	contracts  map[string]nbac.Contract
	termFactor int // terminationFactor; tests lower it
	maxTxns    int // maxAuditTxns; tests lower it

	maxDelay atomic.Int64 // ns, across every observed envelope

	mu       sync.Mutex
	txns     map[string]*auditTxn
	order    []string // insertion order, for FIFO eviction
	observed int64
	checked  int64
	incompl  int64
	maxU     time.Duration
	maxSpan  time.Duration
	viol     map[string]int64
	violTxns map[string][]string
}

// NewAuditor builds an auditor; install it with SetAuditor.
func NewAuditor(cfg AuditorConfig) *Auditor {
	return &Auditor{
		contracts:  cfg.Contracts,
		termFactor: terminationFactor,
		maxTxns:    maxAuditTxns,
		txns:       make(map[string]*auditTxn),
		viol:       make(map[string]int64),
		violTxns:   make(map[string][]string),
	}
}

var activeAuditor atomic.Pointer[Auditor]

// SetAuditor installs a (nil uninstalls) as the process-global auditor
// the live runtime and transports feed. The detached cost on hot paths
// is one atomic pointer load.
func SetAuditor(a *Auditor) {
	if a == nil {
		activeAuditor.Store(nil)
		return
	}
	activeAuditor.Store(a)
}

// ActiveAuditor returns the installed auditor, or nil.
func ActiveAuditor() *Auditor { return activeAuditor.Load() }

// pendingViolation defers ReportAnomaly until the auditor's lock is
// released (the anomaly hook is arbitrary user code).
type pendingViolation struct{ kind, txID, detail string }

func (a *Auditor) fire(pend []pendingViolation) {
	for _, p := range pend {
		ReportAnomaly(p.kind, p.txID, p.detail)
	}
}

// get returns the transaction's record, creating (and FIFO-evicting)
// as needed. Callers hold a.mu.
func (a *Auditor) get(txID string) *auditTxn {
	tx, ok := a.txns[txID]
	if !ok {
		tx = &auditTxn{
			votes:    make(map[core.ProcessID]core.Value),
			paths:    make(map[core.ProcessID]string),
			reported: make(map[string]bool),
			exec: nbac.Execution{
				Decisions: make(map[core.ProcessID]core.Value),
			},
		}
		a.txns[txID] = tx
		a.order = append(a.order, txID)
		a.observed++
		for len(a.order) > a.maxTxns {
			old := a.order[0]
			a.order = a.order[1:]
			if t := a.txns[old]; t != nil && !t.done {
				a.incompl++
			}
			delete(a.txns, old)
		}
	}
	return tx
}

// violLocked counts a violation and returns the deferred report.
// Callers hold a.mu; kinds already fired for the transaction are
// swallowed (nil detail sentinel).
func (a *Auditor) violLocked(tx *auditTxn, kind, txID, detail string) *pendingViolation {
	if tx.reported[kind] {
		return nil
	}
	tx.reported[kind] = true
	a.viol[kind]++
	if len(a.violTxns[kind]) < 8 {
		a.violTxns[kind] = append(a.violTxns[kind], txID)
	}
	return &pendingViolation{kind: kind, txID: txID, detail: detail}
}

// Vote records process proc's proposal for txID: the protocol ran with
// n participants under bound u, labeled by protocol name.
func (a *Auditor) Vote(txID string, proc core.ProcessID, n int, label string, vote core.Value, u time.Duration) {
	stamp := ProcessClock.Tick()
	a.mu.Lock()
	tx := a.get(txID)
	if tx.exec.N == 0 {
		tx.exec.N = n
		tx.label = label
		tx.u = u
	}
	if u > a.maxU {
		a.maxU = u
	}
	if _, ok := tx.votes[proc]; !ok {
		tx.votes[proc] = vote
		if tx.firstVote == 0 || stamp < tx.firstVote {
			tx.firstVote = stamp
		}
		if stamp > tx.lastVote {
			tx.lastVote = stamp
		}
	}
	pend := a.maybeFinalizeLocked(txID, tx)
	a.mu.Unlock()
	a.fire(pend)
}

// Decide records process proc's decision (path optionally names the
// protocol's decide-path annotation). Agreement and decision stability
// are evaluated immediately — a violation must not wait for laggards.
func (a *Auditor) Decide(txID string, proc core.ProcessID, v core.Value, path string) {
	stamp := ProcessClock.Tick()
	var pend []pendingViolation
	a.mu.Lock()
	tx := a.get(txID)
	if path != "" && tx.paths[proc] == "" {
		tx.paths[proc] = path
	}
	if prev, ok := tx.exec.Decisions[proc]; ok {
		if prev != v {
			if p := a.violLocked(tx, "audit-stability", txID, fmt.Sprintf(
				"%v decided %v then %v", proc, prev, v)); p != nil {
				pend = append(pend, *p)
			}
		}
		a.mu.Unlock()
		a.fire(pend)
		return
	}
	tx.exec.Decisions[proc] = v
	if stamp > tx.lastDec {
		tx.lastDec = stamp
	}
	// Incremental agreement via the shared predicate: two live
	// decisions that differ are a violation no matter who is still
	// undecided (the sim checker sees the same through nbac.Check once
	// the execution record is complete).
	if !tx.exec.Agreement() {
		if p := a.violLocked(tx, "audit-agreement", txID, a.decisionVectorLocked(tx)); p != nil {
			pend = append(pend, *p)
		}
	}
	pend = append(pend, a.maybeFinalizeLocked(txID, tx)...)
	a.mu.Unlock()
	a.fire(pend)
}

// ObserveSend records that a protocol envelope of txID left a process.
// Called by live.Instance, like the other two observations, while an
// auditor is installed.
func (a *Auditor) ObserveSend(txID string) {
	a.mu.Lock()
	if tx, ok := a.txns[txID]; ok && !tx.done {
		tx.inflight++
	}
	a.mu.Unlock()
}

// ObserveRecv records that the handler of a protocol envelope of txID is
// about to run, and the delay since its send: now, the receiver's merged clock, minus
// the sender's stamp (0: the transport stamps none).
func (a *Auditor) ObserveRecv(txID string, sent, now HLC) {
	var d time.Duration
	if sent != 0 {
		// Cross-machine clock skew can make it negative; don't let that
		// poison the maxima.
		d = max(now.Sub(sent), 0)
	}
	for {
		cur := a.maxDelay.Load()
		if int64(d) <= cur || a.maxDelay.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	a.mu.Lock()
	if tx, ok := a.txns[txID]; ok && !tx.done {
		tx.inflight--
		tx.maxDelay = max(tx.maxDelay, d)
	}
	a.mu.Unlock()
}

// ObserveLag records that a timer handler of txID finished lag after its
// deadline, or its start handler lag after reading the clock: a slow
// process, which the synchronous model rules out as much as a slow message.
func (a *Auditor) ObserveLag(txID string, lag time.Duration) {
	a.mu.Lock()
	if tx, ok := a.txns[txID]; ok && !tx.done {
		tx.maxLag = max(tx.maxLag, lag)
	}
	a.mu.Unlock()
}

// maybeFinalizeLocked runs the shared property check once every
// participant's decision is in. Callers hold a.mu.
func (a *Auditor) maybeFinalizeLocked(txID string, tx *auditTxn) []pendingViolation {
	if tx.done || tx.exec.N == 0 || len(tx.exec.Decisions) < tx.exec.N {
		return nil
	}
	tx.done = true
	a.checked++

	// Materialize the vote vector. A missing vote (possible when a
	// process decided purely through helping) forfeits failure-free
	// classification but is conservatively recorded as yes so the
	// class-independent commit clause stays sound.
	votesMissing := false
	tx.exec.Votes = make([]core.Value, tx.exec.N)
	for i := 1; i <= tx.exec.N; i++ {
		v, ok := tx.votes[core.ProcessID(i)]
		if !ok {
			votesMissing = true
			v = core.Commit
		}
		tx.exec.Votes[i-1] = v
	}

	// Execution-class classification (see the package comment above):
	// failure-free only when nothing observable suggests the timing
	// assumptions were broken.
	voteSpread := tx.lastVote.Sub(tx.firstVote)
	tx.exec.NetworkFailure = votesMissing || tx.inflight != 0 ||
		(tx.u > 0 && tx.maxDelay+voteSpread+tx.maxLag >= tx.u)

	contract, ok := a.contracts[tx.label]
	if !ok {
		contract = defaultContract
	}
	var pend []pendingViolation
	failed := nbac.Failed(contract, &tx.exec)
	if failed.Has(nbac.PropA) {
		if p := a.violLocked(tx, "audit-agreement", txID, a.decisionVectorLocked(tx)); p != nil {
			pend = append(pend, *p)
		}
	}
	if failed.Has(nbac.PropV) {
		detail := fmt.Sprintf("%v execution: votes %v, decisions %s",
			tx.exec.Class(), tx.exec.Votes, a.decisionVectorLocked(tx))
		if p := a.violLocked(tx, "audit-validity", txID, detail); p != nil {
			pend = append(pend, *p)
		}
	}

	// Termination within bound, from the recorded HLC span.
	if span := tx.lastDec.Sub(tx.firstVote); span > 0 {
		if span > a.maxSpan {
			a.maxSpan = span
		}
		if tx.u > 0 && span > time.Duration(a.termFactor)*tx.u {
			if p := a.violLocked(tx, "audit-termination", txID, fmt.Sprintf(
				"vote→decision span %v exceeds %d×U (U=%v)", span, a.termFactor, tx.u)); p != nil {
				pend = append(pend, *p)
			}
		}
	}
	return pend
}

// decisionVectorLocked renders "P1=commit(fast) P2=abort(consensus)".
// Callers hold a.mu.
func (a *Auditor) decisionVectorLocked(tx *auditTxn) string {
	pids := make([]core.ProcessID, 0, len(tx.exec.Decisions))
	for p := range tx.exec.Decisions {
		pids = append(pids, p)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	parts := make([]string, 0, len(pids))
	for _, p := range pids {
		s := fmt.Sprintf("%v=%v", p, tx.exec.Decisions[p])
		if path := tx.paths[p]; path != "" {
			s += "(" + path + ")"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}

// AuditSummary is the auditor's aggregate view: what TestAuditedLoad
// asserts on and what /debug/audit serves.
type AuditSummary struct {
	TxnsObserved int64 `json:"txnsObserved"` // transactions with ≥1 audit record
	TxnsChecked  int64 `json:"txnsChecked"`  // fully decided and property-checked
	Incomplete   int64 `json:"incomplete"`   // evicted before all decisions arrived

	// Violations counts fired anomalies by kind; ViolationTxns holds up
	// to 8 example transaction IDs per kind.
	Violations    map[string]int64    `json:"violations,omitempty"`
	ViolationTxns map[string][]string `json:"violationTxns,omitempty"`

	// MaxOneWayDelayNs is the largest observed envelope delay (the
	// handler's HLC minus the send stamp) across the run; MaxUNs the largest
	// configured bound U seen — their ratio says how much headroom the
	// deployment's timeout really had.
	MaxOneWayDelayNs int64 `json:"maxOneWayDelayNs"`
	MaxUNs           int64 `json:"maxUNs"`
	// MaxSpanNs is the largest vote→decision HLC span of any checked
	// transaction; TerminationFactor×U is the bound it is audited against,
	// the client's bound on a commit (128 U).
	MaxSpanNs         int64 `json:"maxSpanNs"`
	TerminationFactor int   `json:"terminationFactor"`
}

// Summary snapshots the auditor's aggregate state.
func (a *Auditor) Summary() AuditSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := AuditSummary{
		TxnsObserved:      a.observed,
		TxnsChecked:       a.checked,
		Incomplete:        a.incompl,
		MaxOneWayDelayNs:  a.maxDelay.Load(),
		MaxUNs:            int64(a.maxU),
		MaxSpanNs:         int64(a.maxSpan),
		TerminationFactor: a.termFactor,
	}
	if len(a.viol) > 0 {
		s.Violations = make(map[string]int64, len(a.viol))
		s.ViolationTxns = make(map[string][]string, len(a.viol))
		for k, v := range a.viol {
			s.Violations[k] = v
			s.ViolationTxns[k] = append([]string(nil), a.violTxns[k]...)
		}
	}
	return s
}

// Violations returns the total count of fired violations by kind.
func (a *Auditor) Violations() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.viol))
	for k, v := range a.viol {
		out[k] = v
	}
	return out
}
