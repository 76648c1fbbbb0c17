package transport

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"fedmp/internal/core"
	"fedmp/internal/transport/checkpoint"
)

// ServerConfig parameterises a parameter server.
type ServerConfig struct {
	// Addr is the listen address, e.g. ":7070" (":0" for an ephemeral
	// port in tests).
	Addr string
	// Workers is the number of workers to wait for before training.
	Workers int
	// Rounds is the number of global rounds to run.
	Rounds int
	// RoundTimeout bounds one round's collection phase; workers that have
	// not reported by then are marked suspect (skipped, not evicted) and
	// their assignments count as dropped.
	RoundTimeout time.Duration
	// Quorum is the number of results that completes a round early: once
	// this many workers have reported, the server waits at most
	// StragglerGrace longer for the rest before aggregating. Zero means
	// wait for every assigned worker (subject to RoundTimeout).
	Quorum int
	// StragglerGrace is how long the server keeps collecting after the
	// quorum is reached (default RoundTimeout/4).
	StragglerGrace time.Duration
	// HelloTimeout bounds how long an accepted connection may take to send
	// its hello before being rejected (default 10s); it keeps a silent
	// client from stalling startup.
	HelloTimeout time.Duration
	// AcceptTimeout bounds the initial wait for Workers workers to join
	// (default 2 minutes).
	AcceptTimeout time.Duration
	// CheckpointDir enables durability: the server checkpoints its full
	// state there (global model, round counter, bandit statistics, worker
	// identity table) and, when the directory already holds state from a
	// previous incarnation, resumes from the round after the last one it
	// closed instead of starting over. Empty disables checkpointing.
	CheckpointDir string
	// SnapshotEvery is the full-snapshot cadence in rounds (default 5).
	// Rounds in between are appended to a write-ahead log that a snapshot
	// resets; recovery replays the log on top of the latest snapshot.
	SnapshotEvery int
	// Abort, when non-nil, stops the server as a crash would when the
	// channel closes: every worker connection is severed without the
	// shutdown handshake and Serve returns ErrAborted. Used by recovery
	// tests and process supervisors; orderly completion ignores it.
	Abort <-chan struct{}
	// Core carries the strategy and hyper-parameters; its Workers field is
	// overwritten by this config's.
	Core core.Config
	// Logf receives progress lines (nil silences logging).
	Logf func(format string, args ...any)
}

// withDefaults validates the config and fills defaults.
func (cfg ServerConfig) withDefaults() (ServerConfig, error) {
	if cfg.Workers < 1 {
		return cfg, fmt.Errorf("transport: server needs at least one worker")
	}
	if cfg.Rounds < 1 {
		return cfg, fmt.Errorf("transport: server needs at least one round")
	}
	if cfg.RoundTimeout == 0 {
		cfg.RoundTimeout = 2 * time.Minute
	}
	if cfg.Quorum < 0 || cfg.Quorum > cfg.Workers {
		return cfg, fmt.Errorf("transport: quorum %d with %d workers", cfg.Quorum, cfg.Workers)
	}
	if cfg.Quorum == 0 {
		cfg.Quorum = cfg.Workers
	}
	if cfg.StragglerGrace == 0 {
		cfg.StragglerGrace = cfg.RoundTimeout / 4
	}
	if cfg.HelloTimeout == 0 {
		cfg.HelloTimeout = 10 * time.Second
	}
	if cfg.AcceptTimeout == 0 {
		cfg.AcceptTimeout = 2 * time.Minute
	}
	if cfg.SnapshotEvery < 0 {
		return cfg, fmt.Errorf("transport: snapshot cadence %d rounds", cfg.SnapshotEvery)
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 5
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg, nil
}

// Worker session states.
const (
	stateDown    = iota // no live connection
	stateActive         // connected and answering
	stateSuspect        // connected but missed a round; skipped until it answers
)

// event is what per-connection readers deliver to the round loop. A nil env
// signals a disconnect; bytes is the received frame's measured wire size.
type event struct {
	worker int
	env    *envelope
	bytes  int
}

// idleTimeout is the reader goroutines' per-receive deadline; it only needs
// to bound how long a dead-but-undetected connection can linger.
const idleTimeout = 24 * time.Hour

// session is one live connection in a slot. Its reader tags events with
// slot, read under the registry mutex, so ordering the slots by worker ID
// at startup can move sessions under their running readers.
type session struct {
	c    *conn
	slot int
}

// registry owns the worker sessions: slot assignment by stable identity,
// one session per slot (a rejoin replaces it, so the replaced reader's exit
// cannot tear down the new session), and the event stream the round loop
// consumes.
type registry struct {
	logf func(string, ...any)
	n    int

	mu    sync.Mutex
	slots map[string]int // stable identity -> slot
	names []string
	sess  []*session
	state []int
	next  int // next unassigned slot
	fresh int // first slot not preseeded from a checkpoint
	// aborted marks a kill: late connections get no shutdown frame.
	aborted bool

	events chan event
	joined chan struct{} // one token per successful (re)join

	// done is closed exactly once — by shutdown (orderly) or kill (abort) —
	// whichever runs first; the other becomes a no-op on the channel.
	done     chan struct{}
	doneOnce sync.Once
}

func newRegistry(n int, logf func(string, ...any)) *registry {
	return &registry{
		logf:   logf,
		n:      n,
		slots:  make(map[string]int),
		names:  make([]string, n),
		sess:   make([]*session, n),
		state:  make([]int, n),
		events: make(chan event, 8*n+16),
		joined: make(chan struct{}, 4*n+16),
		done:   make(chan struct{}),
	}
}

// admit places a hello'd connection into a slot: a known identity re-enters
// its old slot (rejoin), a new identity takes the next free slot, and a
// stranger arriving at a full server is turned away.
func (r *registry) admit(c *conn, hello *helloMsg) {
	r.mu.Lock()
	select {
	case <-r.done:
		// Shutdown raced the accept loop: a connection hello'd after the
		// registry closed must not resurrect a slot. After an orderly
		// shutdown, tell the worker why before closing — like the
		// server-full rejection below — so the hangup reads as a clean
		// shutdown rather than a transport fault that sends the worker back
		// into its redial loop. After an abort, hang up without a word, as
		// a crashed server would: the worker redials the next incarnation.
		// The check holds the mutex, so shutdown and kill, which close the
		// sessions under it after closing done, cannot miss this one.
		aborted := r.aborted
		r.mu.Unlock()
		if !aborted {
			sendShutdownLogged(c, "server shutting down", r.logf)
		}
		closeLogged(c, r.logf, "late connection")
		return
	default:
	}
	slot := -1
	if hello.ID != "" {
		if s, ok := r.slots[hello.ID]; ok {
			slot = s
		}
	}
	rejoin := slot >= 0
	if slot < 0 {
		if r.next >= r.n {
			r.mu.Unlock()
			sendShutdownLogged(c, "server full", r.logf)
			closeLogged(c, r.logf, "rejected connection")
			r.logf("rejecting %q: all %d slots taken", hello.Name, r.n)
			return
		}
		slot = r.next
		r.next++
		if hello.ID != "" {
			r.slots[hello.ID] = slot
		}
	}
	if old := r.sess[slot]; old != nil {
		closeLogged(old.c, r.logf, "replaced connection")
	}
	s := &session{c: c, slot: slot}
	r.names[slot] = hello.Name
	r.sess[slot] = s
	r.state[slot] = stateActive
	r.mu.Unlock()

	if rejoin {
		r.logf("worker %d (%s) rejoined", slot, hello.Name)
	} else {
		r.logf("worker %d joined: %s", slot, hello.Name)
	}
	go r.read(s)
	select {
	case r.joined <- struct{}{}:
	default:
	}
}

// orderSlots gives the workers that joined since startup (every slot not
// preseeded from a checkpoint) their slots in worker-ID order, so which
// worker trains as slot i does not depend on hello arrival order. It runs
// once every slot has joined, before the first round.
func (r *registry) orderSlots() {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, r.n)
	for id, slot := range r.slots {
		ids[slot] = id
	}
	order := make([]int, 0, r.next-r.fresh)
	for slot := r.fresh; slot < r.next; slot++ {
		order = append(order, slot)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ids[a], ids[b]) })
	names := slices.Clone(r.names)
	sess := slices.Clone(r.sess)
	state := slices.Clone(r.state)
	for i, old := range order {
		slot := r.fresh + i
		if ids[old] != "" {
			r.slots[ids[old]] = slot
		}
		r.names[slot], r.sess[slot], r.state[slot] = names[old], sess[old], state[old]
		if s := sess[old]; s != nil {
			s.slot = slot
		}
	}
}

// read pumps one connection's envelopes into the event stream until the
// connection dies or is replaced by a rejoin.
func (r *registry) read(s *session) {
	for {
		e, n, err := s.c.recv(idleTimeout)
		if err != nil {
			if slot, ok := r.drop(s); ok {
				r.push(event{worker: slot, env: nil})
			}
			return
		}
		r.mu.Lock()
		slot := s.slot
		r.mu.Unlock()
		r.push(event{worker: slot, env: e, bytes: n})
	}
}

// push delivers an event unless the server is shutting down.
func (r *registry) push(ev event) {
	select {
	case r.events <- ev:
	case <-r.done:
	}
}

// drop tears down s if it still holds its slot (a rejoin replaces it first,
// making the old reader's teardown a no-op). Reports the slot and whether
// it acted.
func (r *registry) drop(s *session) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sess[s.slot] != s {
		return 0, false
	}
	closeLogged(s.c, r.logf, "dropped connection")
	r.sess[s.slot] = nil
	r.state[s.slot] = stateDown
	return s.slot, true
}

// send transmits to a slot's current connection, returning the frame's
// measured wire size.
func (r *registry) send(slot int, e *envelope) (int, error) {
	r.mu.Lock()
	s := r.sess[slot]
	r.mu.Unlock()
	if s == nil {
		return 0, fmt.Errorf("transport: worker %d disconnected", slot)
	}
	return s.c.send(e)
}

// markSuspect demotes a connected worker that missed a round.
func (r *registry) markSuspect(slot int) {
	r.mu.Lock()
	if r.sess[slot] != nil {
		r.state[slot] = stateSuspect
	}
	r.mu.Unlock()
}

// restore promotes a suspect worker that answered back to active.
func (r *registry) restore(slot int) {
	r.mu.Lock()
	if r.sess[slot] != nil && r.state[slot] == stateSuspect {
		r.state[slot] = stateActive
		r.mu.Unlock()
		r.logf("worker %d answered again, restoring", slot)
		return
	}
	r.mu.Unlock()
}

// active lists slots that are connected and not suspect.
func (r *registry) active() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for i := 0; i < r.n; i++ {
		if r.sess[i] != nil && r.state[i] == stateActive {
			out = append(out, i)
		}
	}
	return out
}

// suspects lists connected suspect slots.
func (r *registry) suspects() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for i := 0; i < r.n; i++ {
		if r.sess[i] != nil && r.state[i] == stateSuspect {
			out = append(out, i)
		}
	}
	return out
}

// connected counts slots with a live connection.
func (r *registry) connected() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	cnt := 0
	for _, s := range r.sess {
		if s != nil {
			cnt++
		}
	}
	return cnt
}

// closeDone closes the done channel at most once, so the orderly shutdown
// path and the abort path can both run without racing a double close.
func (r *registry) closeDone() {
	r.doneOnce.Do(func() { close(r.done) })
}

// shutdown closes every live connection after sending a shutdown frame.
func (r *registry) shutdown(reason string) {
	r.closeDone()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.sess {
		if s == nil {
			continue
		}
		sendShutdownLogged(s.c, reason, r.logf)
		closeLogged(s.c, r.logf, "worker connection")
		r.sess[i] = nil
		r.state[i] = stateDown
	}
}

// pingSuspects sends a heartbeat to every connected suspect worker; a pong
// (or any other frame) restores it to the live set. Slot and connection are
// captured under one mutex hold, and a failed send severs that exact
// captured connection: the blocked per-connection reader then unblocks with
// a recv error and runs the ordinary drop path immediately, instead of the
// dead suspect lingering until the idle timeout fires. Closing the captured
// pointer (rather than re-reading the slot's session) keeps a concurrent
// rejoin's fresh connection safe — at worst the old, already replaced
// connection is closed twice.
func (r *registry) pingSuspects() {
	type target struct {
		slot int
		c    *conn
	}
	var targets []target
	r.mu.Lock()
	for i := 0; i < r.n; i++ {
		if r.sess[i] != nil && r.state[i] == stateSuspect {
			targets = append(targets, target{i, r.sess[i].c})
		}
	}
	r.mu.Unlock()
	for _, t := range targets {
		if _, err := t.c.send(&envelope{Kind: kindPing}); err != nil {
			r.logf("heartbeat to worker %d failed, severing: %v", t.slot, err)
			closeLogged(t.c, r.logf, "dead suspect connection")
		}
	}
}

// roundState tracks one round's in-flight collection.
type roundState struct {
	round     int
	pending   map[int]core.Assignment // worker -> assignment awaiting a result
	sentAt    map[int]time.Time
	sentBytes map[int]int64 // worker -> measured assignment frame size
	outs      []core.Output
	dropped   []core.Assignment
}

// server bundles the round loop's fixed parts.
type server struct {
	cfg      ServerConfig
	reg      *registry
	logf     func(string, ...any)
	quantize bool // ship assignments int8-quantized and ask for quantized results
}

// maxBarrenRounds bounds how many consecutive rounds may complete with zero
// results before the server gives up (every such round is retried, so this
// is a liveness backstop, not a scheduling parameter).
const maxBarrenRounds = 5

// Serve runs the parameter server end to end: it accepts the configured
// number of workers, runs the rounds and shuts the workers down, returning
// the evaluation trajectory. It reuses the simulation's strategies and round
// ledger verbatim; only the time source differs (wall seconds since the
// workers joined instead of the cluster model), so Rounds, TimeBudget,
// TargetAccuracy, TargetLoss and StreamMetrics mean what they mean in
// core.Run. Core options only the simulator implements are rejected (see
// checkWireConfig).
//
// The round engine is fault tolerant: sends and receives fan out per worker
// under a single round deadline, a round aggregates as soon as Quorum
// results are in (plus a straggler grace period), workers that miss a round
// are marked suspect and skipped — not evicted — and are restored as soon as
// they answer again (late result, heartbeat pong, or a fresh connection
// presenting the same stable worker identity).
func Serve(fam core.Family, cfg ServerConfig) (*core.Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	coreCfg := cfg.Core
	coreCfg.Workers = cfg.Workers
	if coreCfg.Rounds == 0 {
		coreCfg.Rounds = cfg.Rounds
	}
	coreCfg, err = core.Normalize(coreCfg)
	if err != nil {
		return nil, err
	}
	if err := checkWireConfig(coreCfg); err != nil {
		return nil, err
	}
	strategy, err := core.NewStrategy(fam, &coreCfg)
	if err != nil {
		return nil, err
	}
	// The ledger's clock starts once every worker has joined.
	var start time.Time
	led, err := core.NewLedger(fam, coreCfg, strategy, func() float64 { return time.Since(start).Seconds() })
	if err != nil {
		return nil, err
	}

	// Durability: open the checkpoint directory and recover any prior
	// incarnation's state before accepting workers, so a restarted server
	// resumes the schedule instead of starting over and rejoining workers
	// are preseeded back into their old slots from the first hello.
	var ckpt *checkpoint.Manager
	var resume *core.State
	if cfg.CheckpointDir != "" {
		ckpt, err = checkpoint.Open(cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		defer func() {
			if cerr := ckpt.Close(); cerr != nil {
				logf("closing checkpoint state: %v", cerr)
			}
		}()
		snap, info, rerr := ckpt.Recover()
		if rerr != nil {
			return nil, fmt.Errorf("transport: recovering checkpoint: %w", rerr)
		}
		if info.TornTail {
			logf("checkpoint WAL had a torn tail (crash mid-append); truncated to the last closed round")
		}
		if info.UsedFallback {
			logf("current snapshot unreadable; recovered from the previous one")
		}
		if snap != nil {
			if err := led.Restore(snap); err != nil {
				return nil, fmt.Errorf("transport: resuming from checkpoint: %w", err)
			}
			resume = snap
			logf("recovered checkpoint: snapshot at round %d plus %d WAL rounds; resuming at round %d",
				info.SnapshotRound, info.WALRounds, snap.Round+1)
		}
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	logf("parameter server listening on %s, waiting for %d workers", ln.Addr(), cfg.Workers)

	reg := newRegistry(cfg.Workers, logf)
	if resume != nil {
		reg.preseed(resume.Workers)
	}
	defer reg.shutdown("done")
	// The listening socket is released only once the accept loop's pending
	// Accept returns, so Serve waits for the loop: when it returns, a
	// restarted server can bind the same address.
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		acceptLoop(ln, reg, cfg.HelloTimeout, logf)
	}()
	defer func() {
		if cerr := ln.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
			logf("closing listener: %v", cerr)
		}
		<-acceptDone
	}()
	if cfg.Abort != nil {
		go func() {
			select {
			case <-cfg.Abort:
				logf("abort: severing worker connections and closing the listener")
				reg.kill()
				if cerr := ln.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
					logf("closing listener on abort: %v", cerr)
				}
			case <-reg.done:
			}
		}()
	}

	// Startup: wait (boundedly) until every slot has joined once, then
	// order the new workers' slots by ID.
	acceptDeadline := time.NewTimer(cfg.AcceptTimeout)
	defer acceptDeadline.Stop()
	for reg.connected() < cfg.Workers {
		select {
		case <-reg.joined:
		case <-reg.done:
			return nil, ErrAborted
		case <-acceptDeadline.C:
			return nil, fmt.Errorf("transport: only %d of %d workers joined within %v",
				reg.connected(), cfg.Workers, cfg.AcceptTimeout)
		}
	}
	reg.orderSlots()

	// snapshot is the durable view of the server after a round: the
	// ledger's State labelled with the registry's identity table.
	snapshot := func() *core.State {
		st := led.State()
		reg.label(st.Workers)
		return st
	}

	start = time.Now()
	round := 1
	if resume != nil {
		round = resume.Round + 1
	}
	led.Evaluate(round - 1)
	s := &server{cfg: cfg, reg: reg, logf: logf, quantize: coreCfg.QuantizeWire}
	for barren := 0; ; round++ {
		select {
		case <-reg.done:
			return nil, ErrAborted
		default:
		}
		reg.pingSuspects()
		workerIDs, err := s.awaitLiveWorkers(round)
		if err != nil {
			return nil, err
		}
		info := led.Info(round)
		assignments, err := strategy.Assign(info, workerIDs)
		if err != nil {
			return nil, err
		}
		roundStart := time.Now()
		rs, err := s.runRound(round, assignments)
		if err != nil {
			return nil, err
		}
		if len(rs.outs) == 0 {
			barren++
			if barren >= maxBarrenRounds {
				return nil, fmt.Errorf("transport: %d consecutive rounds with no results", barren)
			}
			logf("round %d: no results; retrying with the restored worker set", round)
			round--
			continue
		}
		barren = 0
		// Results arrive in whatever order the network delivers them, and
		// the float mean in Aggregate depends on summation order: fix it
		// by worker ID, as the simulator's cohort merge does.
		slices.SortFunc(rs.outs, func(a, b core.Output) int { return cmp.Compare(a.Worker, b.Worker) })
		slices.SortFunc(rs.dropped, func(a, b core.Assignment) int { return cmp.Compare(a.Worker, b.Worker) })
		roundTime := time.Since(roundStart).Seconds()
		if err := led.Close(round, info, rs.outs, rs.dropped, len(reg.suspects()), roundTime); err != nil {
			return nil, err
		}
		met := false
		if round%coreCfg.EvalEvery == 0 {
			var p core.Point
			p, met = led.Evaluate(round)
			logf("round %d: loss %.4f acc %.3f (%d/%d workers, %d dropped, %.2fs)",
				round, p.Loss, p.Acc, len(rs.outs), cfg.Workers, len(rs.dropped), roundTime)
		}

		// The round is durable once its record is fsync'd: a full snapshot
		// every SnapshotEvery rounds (which resets the WAL), a WAL append in
		// between. A durability failure is fatal — continuing would silently
		// demote the recovery guarantee this server was configured for.
		if ckpt != nil {
			if round%cfg.SnapshotEvery == 0 {
				if err := ckpt.WriteSnapshot(snapshot()); err != nil {
					return nil, fmt.Errorf("transport: checkpointing round %d: %w", round, err)
				}
			} else if err := ckpt.AppendRound(snapshot()); err != nil {
				return nil, fmt.Errorf("transport: journaling round %d: %w", round, err)
			}
		}
		if met || led.Stop(round) {
			break
		}
	}
	// Result.State stays nil: with a checkpoint directory the final state is
	// its last record, and callers that keep many results (the benchmark
	// keeps every execution's) should not also hold a model copy each.
	return led.Result(), nil
}

// checkWireConfig rejects the Core options only the simulator implements:
// the asynchronous engine, device models (Scenario, Population) and fault
// injection (Faults, FailureRate) have no wire counterpart, and the wire's
// own fault tolerance is ServerConfig's RoundTimeout and Quorum rather than
// the §V-A virtual-time deadline.
func checkWireConfig(c core.Config) error {
	for _, o := range []struct {
		set  bool
		name string
	}{
		{c.Async, "Async"},
		{c.Population != nil, "Population"},
		{c.Scenario != nil, "Scenario"},
		{c.Faults.Enabled(), "Faults"},
		{c.FailureRate > 0, "FailureRate"},
		{c.FaultTolerance, "FaultTolerance"},
	} {
		if o.set {
			return fmt.Errorf("transport: Core.%s is simulator-only; the wire runtime does not support it", o.name)
		}
	}
	return nil
}

// acceptLoop admits connections for the server's whole lifetime so workers
// can rejoin mid-training; each hello is handled concurrently under its own
// deadline so a silent client cannot stall anyone else.
func acceptLoop(ln net.Listener, reg *registry, helloTimeout time.Duration, logf func(string, ...any)) {
	for {
		raw, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // orderly: the listener closed on shutdown
			}
			logf("accept loop stopping: %v", err)
			return
		}
		go func(raw net.Conn) {
			c := newConn(raw)
			e, _, err := c.recv(helloTimeout)
			if err != nil || e.Kind != kindHello {
				closeLogged(c, logf, "silent connection")
				logf("rejecting connection %v: bad or missing hello", raw.RemoteAddr())
				return
			}
			reg.admit(c, e.Hello)
		}(raw)
	}
}

// awaitLiveWorkers returns the current active worker set, waiting up to the
// round timeout for a suspect to answer or a rejoin when the set is empty.
func (s *server) awaitLiveWorkers(round int) ([]int, error) {
	live := s.reg.active()
	if len(live) > 0 {
		return live, nil
	}
	s.logf("round %d: no live workers, waiting for a rejoin", round)
	deadline := time.NewTimer(s.cfg.RoundTimeout)
	defer deadline.Stop()
	for {
		select {
		case ev := <-s.reg.events:
			s.handleEvent(ev, nil)
		case <-s.reg.joined:
		case <-s.reg.done:
			return nil, ErrAborted
		case <-deadline.C:
			return nil, fmt.Errorf("transport: every worker has disconnected")
		}
		if live = s.reg.active(); len(live) > 0 {
			return live, nil
		}
	}
}

// runRound fans the assignments out to their workers and collects results
// until everyone answered, the quorum-plus-grace closes the round, or the
// round deadline expires. Workers that do not deliver are marked suspect and
// their assignments reported as dropped. An abort mid-collection surfaces as
// ErrAborted; the round's results are discarded (its WAL record was never
// written, so recovery replays the round).
func (s *server) runRound(round int, assignments []core.Assignment) (*roundState, error) {
	rs := &roundState{
		round:     round,
		pending:   make(map[int]core.Assignment, len(assignments)),
		sentAt:    make(map[int]time.Time, len(assignments)),
		sentBytes: make(map[int]int64, len(assignments)),
	}

	// Fan out sends; each is bounded by the connection write deadline.
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, a := range assignments {
		wg.Add(1)
		go func(a core.Assignment) {
			defer wg.Done()
			// With quantization on, the codec encodes each tensor int8
			// whenever that is cheaper; the worker then trains on the
			// dequantized reconstruction while this server keeps (and later
			// reconstructs against) the full-precision weights.
			msg := &assignMsg{
				Round:    round,
				Desc:     a.Desc,
				Weights:  a.Weights,
				Iters:    a.Iters,
				ProxMu:   a.ProxMu,
				UploadK:  a.UploadK,
				Ratio:    a.Ratio,
				Quantize: s.quantize,
			}
			sent := time.Now()
			n, err := s.reg.send(a.Worker, &envelope{Kind: kindAssign, Assign: msg, Quantize: s.quantize})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				s.logf("round %d: send to worker %d failed (%v)", round, a.Worker, err)
				rs.dropped = append(rs.dropped, a)
				s.reg.markSuspect(a.Worker)
				return
			}
			rs.pending[a.Worker] = a
			rs.sentAt[a.Worker] = sent
			rs.sentBytes[a.Worker] = int64(n)
		}(a)
	}
	wg.Wait()

	needed := s.cfg.Quorum
	if needed > len(rs.pending) {
		needed = len(rs.pending)
	}
	deadline := time.NewTimer(s.cfg.RoundTimeout)
	defer deadline.Stop()
	var grace *time.Timer
	var graceC <-chan time.Time
	defer func() {
		if grace != nil {
			grace.Stop()
		}
	}()
collect:
	for len(rs.pending) > 0 {
		if len(rs.outs) >= needed && graceC == nil {
			grace = time.NewTimer(s.cfg.StragglerGrace)
			graceC = grace.C
		}
		select {
		case ev := <-s.reg.events:
			s.handleEvent(ev, rs)
		case <-s.reg.done:
			return nil, ErrAborted
		case <-graceC:
			s.logf("round %d: quorum %d reached, grace expired with %d still in flight",
				round, needed, len(rs.pending))
			break collect
		case <-deadline.C:
			s.logf("round %d: deadline expired with %d still in flight", round, len(rs.pending))
			break collect
		}
	}
	// Whoever is still pending missed the round: suspect, not evicted.
	for w, a := range rs.pending {
		s.logf("round %d: worker %d missed the round, marking suspect", round, w)
		s.reg.markSuspect(w)
		rs.dropped = append(rs.dropped, a)
	}
	return rs, nil
}

// handleEvent folds one session event into the round state. rs may be nil
// (between rounds); results for other rounds are drained and discarded, and
// any frame from a suspect worker restores it.
func (s *server) handleEvent(ev event, rs *roundState) {
	if ev.env == nil {
		// Disconnect: a pending assignment on that session is lost.
		s.logf("worker %d disconnected", ev.worker)
		if rs != nil {
			if a, ok := rs.pending[ev.worker]; ok {
				delete(rs.pending, ev.worker)
				delete(rs.sentAt, ev.worker)
				delete(rs.sentBytes, ev.worker)
				rs.dropped = append(rs.dropped, a)
			}
		}
		return
	}
	switch ev.env.Kind {
	case kindResult:
		r := ev.env.Result
		if rs == nil || r.Round != rs.round {
			s.logf("discarding stale result from worker %d (round %d)", ev.worker, r.Round)
			s.reg.restore(ev.worker)
			return
		}
		a, ok := rs.pending[ev.worker]
		if !ok {
			s.logf("discarding duplicate result from worker %d", ev.worker)
			return
		}
		total := time.Since(rs.sentAt[ev.worker]).Seconds()
		comm := total - r.CompSeconds
		if comm < 0 {
			comm = 0
		}
		// Traffic is charged from the measured frames: the assignment frame
		// this round-trip started with and the result frame that just
		// arrived — the same sizes codec.FrameBytes predicts, so the cluster
		// simulation's accounting and this runtime's agree byte for byte.
		o := core.Output{
			Assignment: a,
			Update:     r.Update,
			TrainLoss:  r.TrainLoss,
			CompTime:   r.CompSeconds,
			CommTime:   comm,
			Total:      total,
			DownBytes:  rs.sentBytes[ev.worker],
			UpBytes:    int64(ev.bytes),
		}
		if r.Delta != nil {
			// Dense mode ships only the trained-minus-assigned delta;
			// reconstruct the new weights against the assignment we sent,
			// exactly as the simulator's worker does.
			w, err := core.ApplyDelta(a.Weights, r.Delta)
			if err != nil {
				s.logf("round %d: malformed result from worker %d (%v), dropping it", rs.round, ev.worker, err)
				delete(rs.pending, ev.worker)
				delete(rs.sentAt, ev.worker)
				delete(rs.sentBytes, ev.worker)
				rs.dropped = append(rs.dropped, a)
				return
			}
			o.NewWeights = w
		}
		delete(rs.pending, ev.worker)
		delete(rs.sentAt, ev.worker)
		delete(rs.sentBytes, ev.worker)
		rs.outs = append(rs.outs, o)
	case kindPong:
		s.reg.restore(ev.worker)
	case kindHello:
		// A second hello on an established session is a protocol error;
		// ignore it rather than killing the worker.
		s.logf("ignoring redundant hello from worker %d", ev.worker)
	default:
		s.logf("ignoring unexpected frame kind %d from worker %d", ev.env.Kind, ev.worker)
	}
}
