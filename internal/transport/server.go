package transport

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"fedmp/internal/core"
	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/transport/checkpoint"
	"fedmp/internal/transport/codec"
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

// registry owns the worker sessions: slot assignment by stable identity,
// per-slot connections with generation counters (a rejoin bumps the
// generation so the replaced reader's exit cannot tear down the new
// session), and the event stream the round loop consumes.
type registry struct {
	logf func(string, ...any)
	n    int

	mu    sync.Mutex
	slots map[string]int // stable identity -> slot
	names []string
	conns []*conn
	gens  []int
	state []int
	next  int // next unassigned slot

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
		conns:  make([]*conn, n),
		gens:   make([]int, n),
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
	select {
	case <-r.done:
		// Shutdown raced the accept loop: a connection hello'd after the
		// registry closed must not resurrect a slot. Tell the worker why
		// before closing — like the server-full rejection below — so the
		// hangup reads as a clean shutdown rather than a transport fault
		// that sends the worker back into its redial loop.
		sendShutdownLogged(c, "server shutting down", r.logf)
		closeLogged(c, r.logf, "late connection")
		return
	default:
	}
	r.mu.Lock()
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
	if old := r.conns[slot]; old != nil {
		closeLogged(old, r.logf, "replaced connection")
	}
	r.names[slot] = hello.Name
	r.conns[slot] = c
	r.gens[slot]++
	gen := r.gens[slot]
	r.state[slot] = stateActive
	r.mu.Unlock()

	if rejoin {
		r.logf("worker %d (%s) rejoined", slot, hello.Name)
	} else {
		r.logf("worker %d joined: %s", slot, hello.Name)
	}
	go r.read(slot, gen, c)
	select {
	case r.joined <- struct{}{}:
	default:
	}
}

// read pumps one connection's envelopes into the event stream until the
// connection dies or is replaced by a rejoin.
func (r *registry) read(slot, gen int, c *conn) {
	for {
		e, n, err := c.recv(idleTimeout)
		if err != nil {
			if r.drop(slot, gen) {
				r.push(event{worker: slot, env: nil})
			}
			return
		}
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

// drop tears down a slot's session if the generation still matches (a rejoin
// bumps it first, making the old reader's teardown a no-op). Reports whether
// it acted.
func (r *registry) drop(slot, gen int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gens[slot] != gen || r.conns[slot] == nil {
		return false
	}
	closeLogged(r.conns[slot], r.logf, "dropped connection")
	r.conns[slot] = nil
	r.state[slot] = stateDown
	return true
}

// send transmits to a slot's current connection, returning the frame's
// measured wire size.
func (r *registry) send(slot int, e *envelope) (int, error) {
	r.mu.Lock()
	c := r.conns[slot]
	r.mu.Unlock()
	if c == nil {
		return 0, fmt.Errorf("transport: worker %d disconnected", slot)
	}
	return c.send(e)
}

// markSuspect demotes a connected worker that missed a round.
func (r *registry) markSuspect(slot int) {
	r.mu.Lock()
	if r.conns[slot] != nil {
		r.state[slot] = stateSuspect
	}
	r.mu.Unlock()
}

// restore promotes a suspect worker that answered back to active.
func (r *registry) restore(slot int) {
	r.mu.Lock()
	if r.conns[slot] != nil && r.state[slot] == stateSuspect {
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
		if r.conns[i] != nil && r.state[i] == stateActive {
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
		if r.conns[i] != nil && r.state[i] == stateSuspect {
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
	for _, c := range r.conns {
		if c != nil {
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
	for i, c := range r.conns {
		if c == nil {
			continue
		}
		sendShutdownLogged(c, reason, r.logf)
		closeLogged(c, r.logf, "worker connection")
		r.conns[i] = nil
		r.state[i] = stateDown
	}
}

// pingSuspects sends a heartbeat to every connected suspect worker; a pong
// (or any other frame) restores it to the live set. Slot, generation and
// connection are captured under one mutex hold, and a failed send severs
// that exact captured connection: the blocked per-connection reader then
// unblocks with a recv error and runs the ordinary drop path immediately,
// instead of the dead suspect lingering until the idle timeout fires.
// Closing the captured pointer (rather than re-reading r.conns[slot]) keeps
// a concurrent rejoin's fresh connection safe — at worst the old, already
// replaced connection is closed twice.
func (r *registry) pingSuspects() {
	type target struct {
		slot, gen int
		c         *conn
	}
	var targets []target
	r.mu.Lock()
	for i := 0; i < r.n; i++ {
		if r.conns[i] != nil && r.state[i] == stateSuspect {
			targets = append(targets, target{i, r.gens[i], r.conns[i]})
		}
	}
	r.mu.Unlock()
	for _, t := range targets {
		if _, err := t.c.send(&envelope{Kind: kindPing}); err != nil {
			r.logf("heartbeat to worker %d (gen %d) failed, severing: %v", t.slot, t.gen, err)
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
// the evaluation trajectory. It reuses the simulation's strategies verbatim;
// only the time source differs (wall clock instead of the cluster model).
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
	strategy, err := core.NewStrategy(fam, &coreCfg)
	if err != nil {
		return nil, err
	}

	global := fam.InitWeights(coreCfg.Seed)

	// Durability: open the checkpoint directory and recover any prior
	// incarnation's state before accepting workers, so a restarted server
	// resumes the schedule instead of starting over and rejoining workers
	// are preseeded back into their old slots from the first hello.
	var ckpt *checkpoint.Manager
	var resume *codec.Snapshot
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
			if err := checkResume(snap, cfg.Workers, coreCfg.Rounds, global); err != nil {
				return nil, err
			}
			if err := resumeBandits(snap, cfg.Workers, strategy); err != nil {
				return nil, err
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
	defer ln.Close()
	logf("parameter server listening on %s, waiting for %d workers", ln.Addr(), cfg.Workers)

	reg := newRegistry(cfg.Workers, logf)
	if resume != nil {
		if err := reg.preseed(resume.Workers); err != nil {
			return nil, err
		}
	}
	defer reg.shutdown("done")
	go acceptLoop(ln, reg, cfg.HelloTimeout, logf)
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

	// Startup: wait (boundedly) until every slot has joined once.
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

	eval, err := core.NewEvaluator(fam, coreCfg.Seed, fam.TestBatch(coreCfg.EvalLimit))
	if err != nil {
		return nil, err
	}

	res := &core.Result{
		Config:           coreCfg,
		TimeToTargetAcc:  math.Inf(1),
		TimeToTargetLoss: math.Inf(1),
	}
	start := time.Now()
	prevLoss := math.NaN()
	prevTimes := make([]float64, cfg.Workers)
	prevComm := make([]float64, cfg.Workers)
	lastRatio := make([]float64, cfg.Workers)
	var roundSum float64
	startRound := 1
	if resume != nil {
		global = resume.Global
		prevLoss = resume.PrevLoss
		roundSum = resume.RoundSum
		copy(prevTimes, resume.PrevTimes)
		copy(prevComm, resume.PrevComm)
		for _, w := range resume.Workers {
			lastRatio[w.Slot] = w.Ratio
		}
		startRound = resume.Round + 1
		res.Rounds = resume.Round
	}

	evaluate := func(round int) core.Point {
		loss, acc := eval.Eval(global)
		p := core.Point{Round: round, Time: time.Since(start).Seconds(), Loss: loss, Acc: acc}
		res.Points = append(res.Points, p)
		return p
	}
	evaluate(startRound - 1)

	// snapshotState assembles the durable view of the server after a round:
	// the registry's identity table plus the model, the scheduler scalars
	// and the strategy's per-worker bandit state.
	snapshotState := func(round int) *codec.Snapshot {
		snap := &codec.Snapshot{
			Round:     round,
			Global:    global,
			PrevLoss:  prevLoss,
			RoundSum:  roundSum,
			PrevTimes: prevTimes,
			PrevComm:  prevComm,
			Workers:   reg.workerTable(),
		}
		bandits := exportBandits(strategy)
		for i := range snap.Workers {
			slot := snap.Workers[i].Slot
			snap.Workers[i].Ratio = lastRatio[slot]
			if slot < len(bandits) {
				snap.Workers[i].Bandit = bandits[slot]
			}
		}
		return snap
	}

	s := &server{cfg: cfg, reg: reg, logf: logf, quantize: coreCfg.QuantizeWire}
	barren := 0
	for round := startRound; round <= coreCfg.Rounds; round++ {
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
		mean := 0.0
		if round > 1 {
			mean = roundSum / float64(round-1)
		}
		info := &core.RoundInfo{
			Round:         round,
			Global:        global,
			PrevLoss:      prevLoss,
			PrevTimes:     append([]float64(nil), prevTimes...),
			PrevCommTimes: append([]float64(nil), prevComm...),
			MeanRoundTime: mean,
		}
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

		for i := range rs.outs {
			o := &rs.outs[i]
			prevTimes[o.Worker] = o.Total
			prevComm[o.Worker] = o.CommTime
			lastRatio[o.Worker] = o.Ratio
		}
		global, err = strategy.Aggregate(info, rs.outs, rs.dropped)
		if err != nil {
			return nil, err
		}
		roundTime := time.Since(roundStart).Seconds()
		roundSum += roundTime
		res.Rounds = round
		var losses float64
		for _, o := range rs.outs {
			losses += o.TrainLoss
		}
		prevLoss = losses / float64(len(rs.outs))

		stat := core.RoundStat{
			Round:        round,
			Time:         roundTime,
			Participants: len(rs.outs),
			Dropped:      len(rs.dropped),
			Suspect:      len(reg.suspects()),
			Ratios:       make([]float64, cfg.Workers),
		}
		for _, o := range rs.outs {
			stat.CompTime += o.CompTime
			stat.CommTime += o.CommTime
			stat.DownBytes += o.DownBytes
			stat.UpBytes += o.UpBytes
			stat.Ratios[o.Worker] = o.Ratio
		}
		stat.CompTime /= float64(len(rs.outs))
		stat.CommTime /= float64(len(rs.outs))
		res.Stats = append(res.Stats, stat)

		if round%coreCfg.EvalEvery == 0 {
			p := evaluate(round)
			logf("round %d: loss %.4f acc %.3f (%d/%d workers, %d dropped, %.2fs)",
				round, p.Loss, p.Acc, len(rs.outs), cfg.Workers, len(rs.dropped), roundTime)
		}

		// The round is durable once its record is fsync'd: a full snapshot
		// every SnapshotEvery rounds (which resets the WAL), a WAL append in
		// between. A durability failure is fatal — continuing would silently
		// demote the recovery guarantee this server was configured for.
		if ckpt != nil {
			if round%cfg.SnapshotEvery == 0 {
				if err := ckpt.WriteSnapshot(snapshotState(round)); err != nil {
					return nil, fmt.Errorf("transport: checkpointing round %d: %w", round, err)
				}
			} else if err := ckpt.AppendRound(snapshotState(round)); err != nil {
				return nil, fmt.Errorf("transport: journaling round %d: %w", round, err)
			}
		}
	}
	if len(res.Points) > 0 {
		last := res.Points[len(res.Points)-1]
		res.FinalAcc, res.FinalLoss = last.Acc, last.Loss
	}
	res.Time = time.Since(start).Seconds()
	return res, nil
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
			// reconstruct the new weights against the assignment we sent.
			w, err := applyDelta(a.Weights, r.Delta)
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

// applyDelta reconstructs a worker's trained weights from the assignment's
// weights plus the uploaded delta (the dense-mode upload never repeats what
// the server just sent). The base tensors are cloned, never mutated — they
// may alias strategy state. A result whose delta does not match the
// assignment's shapes is a protocol error reported to the caller, not a
// panic.
func applyDelta(base, delta []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(delta) != len(base) {
		return nil, fmt.Errorf("delta has %d tensors, assignment has %d", len(delta), len(base))
	}
	out := nn.CloneWeights(base)
	for i := range out {
		if len(delta[i].Data) != len(out[i].Data) {
			return nil, fmt.Errorf("delta tensor %d has %d elements, assignment has %d",
				i, len(delta[i].Data), len(out[i].Data))
		}
		dst, src := out[i].Data, delta[i].Data
		for j := range dst {
			dst[j] += src[j]
		}
	}
	return out, nil
}
