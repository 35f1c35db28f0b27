package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"strata/internal/kvstore"
	"strata/internal/obslog"
	"strata/internal/pubsub"
)

// Manager owns a shared key-value store and broker and runs independently
// deployable pipelines on top of them. It realizes the paper's design goal
// that "multiple event detection methods can be continuously deployed, run
// (potentially in parallel), and decommissioned": each Deploy creates a
// fresh Framework (one SPE query) wired to the shared substrates, and
// Decommission cancels just that pipeline.
//
// Pipelines are supervised: a failed pipeline can be restarted automatically
// (WithRestartPolicy), and terminal pipelines stay queryable through
// Status/Failed instead of vanishing, so an operator can tell a
// decommissioned pipeline from a crashed one hours into a build.
type Manager struct {
	store      *kvstore.DB
	broker     *pubsub.Broker
	traceEvery int // default trace sampling for deployed pipelines

	// overload is the degradation controller (nil without
	// WithOverloadControl); see overload.go.
	overload *overloadController

	mu        sync.Mutex
	closed    bool
	pipelines map[string]*Pipeline // live (running or restarting)
	terminal  map[string]*Pipeline // completed / decommissioned / failed
}

// ManagerOption customizes NewManager.
type ManagerOption func(*Manager)

// WithDefaultTraceSampling makes every deployed pipeline trace one in n
// source tuples (see WithTraceSampling); the finished traces are exposed
// through Manager.Traces. n <= 0 (the default) disables tracing.
func WithDefaultTraceSampling(n int) ManagerOption {
	return func(m *Manager) { m.traceEvery = n }
}

// PipelineStatus describes where a pipeline is in its lifecycle.
type PipelineStatus int

const (
	// StatusRunning: the pipeline's query is executing.
	StatusRunning PipelineStatus = iota + 1
	// StatusRestarting: the pipeline failed and the manager is waiting out
	// the restart backoff before rebuilding it.
	StatusRestarting
	// StatusCompleted: every source drained and the query ended cleanly.
	StatusCompleted
	// StatusDecommissioned: the pipeline was cancelled on purpose.
	StatusDecommissioned
	// StatusFailed: the pipeline ended with an error (restart budget
	// exhausted, or RestartNever).
	StatusFailed
)

// String returns the lowercase human-readable status name.
func (s PipelineStatus) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusRestarting:
		return "restarting"
	case StatusCompleted:
		return "completed"
	case StatusDecommissioned:
		return "decommissioned"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Terminal reports whether the status is an end state.
func (s PipelineStatus) Terminal() bool {
	return s == StatusCompleted || s == StatusDecommissioned || s == StatusFailed
}

// RestartPolicy selects what the manager does when a pipeline's query ends
// with an error.
type RestartPolicy int

const (
	// RestartNever marks the pipeline failed on its first error (default).
	RestartNever RestartPolicy = iota
	// RestartOnFailure rebuilds and reruns the pipeline after an error, up
	// to restartBudget consecutive times, waiting out a backoff between
	// attempts. A clean drain or a decommission is never restarted.
	RestartOnFailure
)

// checkpointRetention is how many checkpoint epochs a pipeline keeps: older
// epochs are deleted after each successful checkpoint.
const checkpointRetention = 3

// restartBudget is how many consecutive restarts a RestartOnFailure pipeline
// is granted; one more failure marks it failed with the last error. The
// budget is per outage, not per lifetime: an incarnation that runs healthily
// for restartBudgetResetAfter earns it back, so a days-long build is not
// failed by its Nth error when the failures are far apart.
const restartBudget = 3

// deployConfig holds per-pipeline supervision knobs.
type deployConfig struct {
	policy      RestartPolicy
	maxRestarts int
	backoff     time.Duration
	ckptEvery   time.Duration
	ckptRetain  int
	criticality Criticality
}

// DeployOption customizes one Deploy call.
type DeployOption func(*deployConfig)

// WithRestartPolicy sets the pipeline's restart policy (default
// RestartNever).
func WithRestartPolicy(p RestartPolicy) DeployOption {
	return func(c *deployConfig) { c.policy = p }
}

// WithRestartBackoff sets the wait between a failure and the rebuild
// (default 100ms). The wait doubles per consecutive restart.
func WithRestartBackoff(d time.Duration) DeployOption {
	return func(c *deployConfig) {
		if d > 0 {
			c.backoff = d
		}
	}
}

// WithCheckpointInterval makes the manager checkpoint the pipeline every d:
// each epoch captures every stateful operator, every positioned source's
// resume offset, and every durable sink's cursor in one atomic store write.
// On a supervised restart — or on a redeploy under the same name after a
// process restart — the pipeline resumes from the newest epoch instead of
// reprocessing from scratch. d <= 0 (the default) disables checkpointing
// entirely: the pipeline's hot path pays nothing.
//
// Checkpointed pipelines usually pair this with RestartOnFailure; the build
// function must compose positioned sources (e.g. AddReplaySource) for
// offsets to be resumable.
func WithCheckpointInterval(d time.Duration) DeployOption {
	return func(c *deployConfig) { c.ckptEvery = d }
}

// Pipeline is one deployed query with its own lifecycle.
type Pipeline struct {
	name   string
	build  func(fw *Framework) error
	cancel context.CancelFunc
	done   chan struct{}

	// Checkpoint wiring (nil / zero unless deployed with
	// WithCheckpointInterval). ckptOpMu serializes checkpoint attempts — the
	// interval loop and CheckpointNow — per pipeline.
	ckptEvery  time.Duration
	ckptRetain int
	ckpt       *ckptStats
	ckptOpMu   sync.Mutex

	// criticality is fixed at deploy time; the overload controller pauses
	// BestEffort pipelines at its last ladder rung.
	criticality Criticality

	mu          sync.Mutex
	fw          *Framework // current incarnation (replaced on restart)
	status      PipelineStatus
	err         error
	restarts    int // lifetime restarts, for reporting
	streak      int // consecutive failures without a healthy run; the budget
	deployedAt  time.Time
	lastFailure time.Time // zero until the first failure
}

// PipelineInfo is a point-in-time summary of one pipeline, as reported by
// List, Status, and Failed.
type PipelineInfo struct {
	Name     string
	Status   PipelineStatus
	Restarts int
	Err      error
	// Uptime is how long the pipeline has been deployed (it keeps growing
	// across restarts; frozen semantics are not needed for terminal
	// pipelines, whose status says they ended).
	Uptime time.Duration
	// LastFailure is when the pipeline last failed (zero if never).
	LastFailure time.Time
}

// ErrPipelineExists is returned by Deploy for duplicate names.
var ErrPipelineExists = errors.New("strata: pipeline already deployed")

// ErrPipelineUnknown is returned by Decommission for unknown names.
var ErrPipelineUnknown = errors.New("strata: unknown pipeline")

// NewManager opens the shared store in storeDir and uses broker (required)
// for all pipelines' connectors.
func NewManager(storeDir string, broker *pubsub.Broker, opts ...ManagerOption) (*Manager, error) {
	if broker == nil {
		return nil, fmt.Errorf("strata: manager requires a broker")
	}
	db, err := kvstore.Open(storeDir)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		store:     db,
		broker:    broker,
		pipelines: make(map[string]*Pipeline),
		terminal:  make(map[string]*Pipeline),
	}
	for _, o := range opts {
		o(m)
	}
	if m.overload != nil {
		go m.overload.run()
	}
	return m, nil
}

// Store exposes the shared key-value store (e.g. for calibration before
// deploying pipelines).
func (m *Manager) Store() *kvstore.DB { return m.store }

// buildFramework constructs and composes one incarnation of a pipeline.
// For checkpointed pipelines it loads the newest epoch BEFORE the user
// build function runs — positioned sources read their resume offset at
// build time — and applies operator state after the build.
func (m *Manager) buildFramework(name string, build func(fw *Framework) error, cfg deployConfig, st *ckptStats) (*Framework, error) {
	fw, err := New(WithStore(m.store), WithBroker(m.broker), WithName(name),
		WithTraceSampling(m.traceEvery))
	if err != nil {
		return nil, err
	}
	if cfg.ckptEvery > 0 {
		restored, err := loadCheckpoint(m.store, name)
		if err != nil {
			return nil, fmt.Errorf("%w: load pipeline %q: %v", ErrCheckpointRestore, name, err)
		}
		fw.enableCheckpointing(restored)
	}
	if err := build(fw); err != nil {
		return nil, fmt.Errorf("strata: build pipeline %q: %w", name, err)
	}
	if err := fw.Err(); err != nil {
		return nil, fmt.Errorf("strata: pipeline %q mis-composed: %w", name, err)
	}
	if err := fw.finishRestore(); err != nil {
		return nil, err
	}
	if fw.restored != nil && st != nil {
		st.restores.Add(1)
	}
	return fw, nil
}

// Deploy builds and starts a pipeline: build receives a Framework wired to
// the shared store and broker, composes the query with the STRATA API, and
// returns. The pipeline then runs until its sources are exhausted or it is
// decommissioned; with WithRestartPolicy(RestartOnFailure) the manager
// rebuilds and reruns it after failures (build must therefore be
// re-invocable: it is called once per incarnation).
func (m *Manager) Deploy(name string, build func(fw *Framework) error, opts ...DeployOption) (*Pipeline, error) {
	cfg := deployConfig{policy: RestartNever, maxRestarts: restartBudget, backoff: 100 * time.Millisecond, ckptRetain: checkpointRetention}
	for _, o := range opts {
		o(&cfg)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, kvstore.ErrClosed
	}
	if _, dup := m.pipelines[name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrPipelineExists, name)
	}
	m.mu.Unlock()

	var st *ckptStats
	if cfg.ckptEvery > 0 {
		st = newCkptStats()
	}
	fw, err := m.buildFramework(name, build, cfg, st)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	p := &Pipeline{
		name:        name,
		build:       build,
		fw:          fw,
		cancel:      cancel,
		done:        make(chan struct{}),
		status:      StatusRunning,
		deployedAt:  time.Now(),
		ckptEvery:   cfg.ckptEvery,
		ckptRetain:  cfg.ckptRetain,
		ckpt:        st,
		criticality: cfg.criticality,
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return nil, kvstore.ErrClosed
	}
	if _, dup := m.pipelines[name]; dup {
		m.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("%w: %q", ErrPipelineExists, name)
	}
	m.pipelines[name] = p
	// A redeploy under a name with a terminal record supersedes it.
	delete(m.terminal, name)
	m.mu.Unlock()

	go m.supervise(ctx, p, cfg)
	return p, nil
}

// supervise runs the pipeline to a terminal state, applying the restart
// policy, then moves it from the live registry to the terminal one.
func (m *Manager) supervise(ctx context.Context, p *Pipeline, cfg deployConfig) {
	defer close(p.done)
	for {
		p.mu.Lock()
		fw := p.fw
		p.mu.Unlock()

		// Periodic checkpoints run beside the incarnation and stop — with a
		// full handshake — before it is torn down or replaced, so a
		// checkpoint never captures a dead framework.
		var ckptDone chan struct{}
		var stopCkpt chan struct{}
		if p.ckptEvery > 0 {
			stopCkpt = make(chan struct{})
			ckptDone = make(chan struct{})
			go m.checkpointLoop(ctx, p, stopCkpt, ckptDone)
		}

		started := time.Now()
		err := fw.Run(ctx)
		if stopCkpt != nil {
			close(stopCkpt)
			<-ckptDone
		}
		if time.Since(started) >= restartBudgetResetAfter {
			// The incarnation ran healthily long enough that the previous
			// outage is over: grant the next failure a fresh restart budget
			// (and restart backoff) instead of a lifetime one.
			p.resetStreak()
		}
		switch {
		case errors.Is(err, context.Canceled):
			p.setTerminal(StatusDecommissioned, nil)
		case err == nil:
			p.setTerminal(StatusCompleted, nil)
		case cfg.policy == RestartOnFailure && p.streakCount() < cfg.maxRestarts:
			if !m.rebuildForRestart(ctx, p, cfg, err) {
				return
			}
			continue
		default:
			p.setTerminal(StatusFailed, err)
		}
		m.retire(p)
		return
	}
}

// rebuildForRestart waits out the backoff and rebuilds the pipeline after a
// failed run. It reports whether supervise should continue with the new
// incarnation; on false the pipeline is already terminal and retired.
//
// A failed checkpoint restore is charged against the restart budget like
// any other failed run — the next attempt may restore cleanly (or fall
// back further once older epochs are pruned forward) — rather than being
// either a terminal build error or an unbounded retry loop.
func (m *Manager) rebuildForRestart(ctx context.Context, p *Pipeline, cfg deployConfig, runErr error) bool {
	err := runErr
	for {
		n := p.beginRestart(err)
		select {
		case <-time.After(restartWait(cfg.backoff, n)):
		case <-ctx.Done():
			p.setTerminal(StatusDecommissioned, nil)
			m.retire(p)
			return false
		}
		next, buildErr := m.buildFramework(p.name, p.build, cfg, p.ckpt)
		if buildErr == nil {
			p.mu.Lock()
			p.fw = next
			p.status = StatusRunning
			p.mu.Unlock()
			return true
		}
		if errors.Is(buildErr, ErrCheckpointRestore) && p.streakCount() < cfg.maxRestarts {
			err = buildErr
			continue
		}
		// A non-restore rebuild failure (or an exhausted budget) is
		// terminal; surface both errors.
		p.setTerminal(StatusFailed, fmt.Errorf("restart after %w; rebuild: %v", err, buildErr))
		m.retire(p)
		return false
	}
}

// checkpointLoop drives periodic checkpoints of one incarnation. Failures
// are recorded in the pipeline's checkpoint stats and retried on the next
// tick — a transient failure (store busy, query quiescing past the
// deadline) must not kill an otherwise healthy pipeline.
func (m *Manager) checkpointLoop(ctx context.Context, p *Pipeline, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(p.ckptEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
			_ = m.checkpointPipeline(ctx, p)
		}
	}
}

// checkpointPipeline takes one checkpoint of a live pipeline: quiesce,
// capture, write one atomic epoch, prune old epochs.
func (m *Manager) checkpointPipeline(ctx context.Context, p *Pipeline) error {
	p.ckptOpMu.Lock()
	defer p.ckptOpMu.Unlock()
	fw := p.Framework()
	if !fw.ckptEnabled || p.ckpt == nil {
		return fmt.Errorf("strata: pipeline %q is not checkpointed", p.name)
	}
	st := p.ckpt
	st.attempts.Add(1)
	fail := func(err error) error {
		st.failures.Add(1)
		return err
	}
	begin := time.Now()
	if hook := checkpointCrash; hook != nil {
		if err := hook("begin"); err != nil {
			return fail(err)
		}
	}
	cut, err := fw.captureCheckpoint(ctx)
	if err != nil {
		return fail(err)
	}
	epoch := fw.lastEpoch + 1
	cut.epoch = epoch
	if hook := checkpointCrash; hook != nil {
		if err := hook("pre-apply"); err != nil {
			return fail(err)
		}
	}
	size, err := writeCheckpoint(m.store, p.name, cut)
	if err != nil {
		return fail(err)
	}
	fw.lastEpoch = epoch
	retain := uint64(p.ckptRetain)
	if epoch > retain {
		if err := pruneEpochs(m.store, p.name, epoch-retain+1); err != nil {
			return fail(err)
		}
	}
	st.lastEpoch.Store(epoch)
	st.lastUnixNano.Store(time.Now().UnixNano())
	st.duration.ObserveDuration(time.Since(begin))
	st.size.Observe(float64(size))
	// The committed epoch goes through the structured log so the flight
	// recorder's ring holds it: a post-crash dump then answers "what was the
	// last durable state?" without consulting the store.
	obslog.L("core").Info("checkpoint committed",
		"pipeline", p.name, "epoch", epoch, "bytes", size,
		"duration", time.Since(begin).String())
	return nil
}

// CheckpointNow synchronously checkpoints the named pipeline (deployed with
// WithCheckpointInterval) and returns the first error. It serializes with
// the periodic checkpoint loop.
func (m *Manager) CheckpointNow(name string) error {
	m.mu.Lock()
	p, ok := m.pipelines[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrPipelineUnknown, name)
	}
	return m.checkpointPipeline(context.Background(), p)
}

// maxRestartBackoff caps the doubling restart backoff so a long-lived flaky
// pipeline retries at a bounded cadence instead of effectively never.
const maxRestartBackoff = time.Minute

// restartBudgetResetAfter is how long an incarnation must run before a
// failure counts as a new outage rather than a continuation of the last
// one: the consecutive-failure streak (and with it the backoff doubling)
// resets, restoring the full restartBudget. A variable so tests
// can shorten it.
var restartBudgetResetAfter = time.Minute

// restartWait returns the backoff before restart attempt n (1-based): base
// doubled per consecutive restart, capped.
func restartWait(base time.Duration, n int) time.Duration {
	wait := base
	for i := 1; i < n; i++ {
		wait *= 2
		if wait >= maxRestartBackoff {
			return maxRestartBackoff
		}
	}
	return wait
}

// retire moves p from the live registry to the terminal one.
func (m *Manager) retire(p *Pipeline) {
	m.mu.Lock()
	if m.pipelines[p.name] == p {
		delete(m.pipelines, p.name)
		m.terminal[p.name] = p
	}
	m.mu.Unlock()
}

func (p *Pipeline) setTerminal(s PipelineStatus, err error) {
	p.mu.Lock()
	p.status = s
	p.err = err
	if err != nil {
		p.lastFailure = time.Now()
	}
	p.mu.Unlock()
	l := obslog.L("core")
	if err != nil {
		l.Error("pipeline terminal", "pipeline", p.name, "status", s.String(), "error", err.Error())
	} else {
		l.Info("pipeline terminal", "pipeline", p.name, "status", s.String())
	}
}

func (p *Pipeline) restartCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restarts
}

// streakCount returns the consecutive failures charged against the current
// outage's restart budget.
func (p *Pipeline) streakCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.streak
}

// resetStreak marks the current outage over: the next failure starts a new
// one with a full restart budget and base backoff.
func (p *Pipeline) resetStreak() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.streak = 0
}

// beginRestart records a failure that will be retried and returns the
// attempt number within the current outage (1-based; governs the backoff
// doubling).
func (p *Pipeline) beginRestart(err error) int {
	p.mu.Lock()
	p.restarts++
	p.streak++
	p.status = StatusRestarting
	p.err = err // last failure, visible while restarting
	p.lastFailure = time.Now()
	streak, restarts := p.streak, p.restarts
	p.mu.Unlock()
	obslog.L("core").Warn("pipeline restarting",
		"pipeline", p.name, "attempt", streak, "restarts", restarts,
		"error", fmt.Sprint(err))
	return streak
}

// Name returns the pipeline's name.
func (p *Pipeline) Name() string { return p.name }

// Framework returns the pipeline's current framework (metrics, store
// access). After a restart this is the newest incarnation.
func (p *Pipeline) Framework() *Framework {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fw
}

// Wait blocks until the pipeline reaches a terminal state and returns its
// error (nil when it drained normally or was decommissioned).
func (p *Pipeline) Wait() error {
	<-p.done
	return p.Err()
}

// Err returns the pipeline's terminal error without blocking: nil while it
// is running, completed, or decommissioned; the last failure otherwise. It
// keeps working after the manager has retired the pipeline — crashed
// pipelines are diagnosable, not gone.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Status returns the pipeline's current lifecycle state.
func (p *Pipeline) Status() PipelineStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.status
}

// Restarts returns how many times the pipeline has been restarted.
func (p *Pipeline) Restarts() int { return p.restartCount() }

// Done reports without blocking whether the pipeline has ended.
func (p *Pipeline) Done() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// info snapshots the pipeline for reporting.
func (p *Pipeline) info() PipelineInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PipelineInfo{
		Name:        p.name,
		Status:      p.status,
		Restarts:    p.restarts,
		Err:         p.err,
		Uptime:      time.Since(p.deployedAt),
		LastFailure: p.lastFailure,
	}
}

// Decommission stops the named pipeline and waits for it to wind down.
func (m *Manager) Decommission(name string) error {
	m.mu.Lock()
	p, ok := m.pipelines[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrPipelineUnknown, name)
	}
	p.cancel()
	return p.Wait()
}

// List summarizes the currently deployed (running or restarting) pipelines,
// sorted by name. Terminal pipelines are reachable through Status and
// Failed.
func (m *Manager) List() []PipelineInfo {
	m.mu.Lock()
	ps := make([]*Pipeline, 0, len(m.pipelines))
	for _, p := range m.pipelines {
		ps = append(ps, p)
	}
	m.mu.Unlock()
	out := make([]PipelineInfo, 0, len(ps))
	for _, p := range ps {
		out = append(out, p.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Status reports the named pipeline, live or terminal, so a crashed
// pipeline is distinguishable from a decommissioned one after the fact.
func (m *Manager) Status(name string) (PipelineInfo, error) {
	m.mu.Lock()
	p, ok := m.pipelines[name]
	if !ok {
		p, ok = m.terminal[name]
	}
	m.mu.Unlock()
	if !ok {
		return PipelineInfo{}, fmt.Errorf("%w: %q", ErrPipelineUnknown, name)
	}
	return p.info(), nil
}

// Failed returns the terminal pipelines that ended in failure, sorted by
// name.
func (m *Manager) Failed() []PipelineInfo {
	m.mu.Lock()
	ps := make([]*Pipeline, 0, len(m.terminal))
	for _, p := range m.terminal {
		ps = append(ps, p)
	}
	m.mu.Unlock()
	out := make([]PipelineInfo, 0, len(ps))
	for _, p := range ps {
		if in := p.info(); in.Status == StatusFailed {
			out = append(out, in)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close decommissions every pipeline and closes the shared store (the
// broker stays with its owner).
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return kvstore.ErrClosed
	}
	m.closed = true
	ps := make([]*Pipeline, 0, len(m.pipelines))
	for _, p := range m.pipelines {
		ps = append(ps, p)
	}
	m.mu.Unlock()

	if m.overload != nil {
		close(m.overload.stop)
		<-m.overload.done
	}
	for _, p := range ps {
		p.cancel()
		<-p.done
	}
	return m.store.Close()
}
