package transport

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fedmp/internal/cluster"
	"fedmp/internal/core"
	"fedmp/internal/data"
	"fedmp/internal/simclock"
	"fedmp/internal/transport/checkpoint"
	"fedmp/internal/transport/codec"
	"fedmp/internal/zoo"
)

// testFamily builds a small image family shared by server and workers.
func testFamily() *core.ImageFamily {
	spec := &zoo.Spec{
		Name: "wire-tiny", InC: 1, InH: 8, InW: 8, Classes: 4,
		Layers: []zoo.LayerSpec{
			{Kind: zoo.KindConv, Name: "conv1", Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: zoo.KindReLU, Name: "relu1"},
			{Kind: zoo.KindMaxPool, Name: "pool1", Window: 2},
			{Kind: zoo.KindFlatten, Name: "flat"},
			{Kind: zoo.KindDense, Name: "fc1", Out: 16},
			{Kind: zoo.KindReLU, Name: "relu2"},
			{Kind: zoo.KindDense, Name: "out", Out: 4},
		},
	}
	ds := data.Generate("wire-tiny", data.Config{
		Classes: 4, C: 1, H: 8, W: 8,
		TrainSize: 240, TestSize: 80, Noise: 0.5, MaxShift: 0, Seed: 77,
	})
	return &core.ImageFamily{Spec: spec, DS: ds}
}

// launch starts a server on a free port and n worker goroutines; it
// returns the server result.
func launch(t *testing.T, strategy core.StrategyID, workers, rounds int) *core.Result {
	t.Helper()
	return launchCfg(t, workers, rounds, core.Config{
		Strategy:   strategy,
		Rounds:     rounds,
		LocalIters: 2,
		BatchSize:  4,
		EvalLimit:  80,
		Seed:       5,
	})
}

// launchCfg is launch with the whole core configuration exposed.
func launchCfg(t *testing.T, workers, rounds int, coreCfg core.Config) *core.Result {
	t.Helper()
	fam := testFamily()
	addr := reservePort(t)
	srvCfg := ServerConfig{
		Addr:         addr,
		Workers:      workers,
		Rounds:       rounds,
		RoundTimeout: 30 * time.Second,
		Core:         coreCfg,
	}

	part := data.PartitionIID(fam.DS, workers, rand.New(rand.NewSource(9)))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		src := data.NewLoader(fam.DS, part[i], 4, rand.New(rand.NewSource(int64(i)+100)))
		go func(i int, src core.Source) {
			defer wg.Done()
			if err := RunWorker(fam, src, WorkerConfig{Addr: addr, Name: "w"}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i, src)
	}
	res, err := Serve(fam, srvCfg)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	return res
}

func TestDistributedSynFL(t *testing.T) {
	res := launch(t, core.StrategySynFL, 3, 4)
	if res.Rounds != 4 {
		t.Errorf("ran %d rounds, want 4", res.Rounds)
	}
	if len(res.Points) != 5 {
		t.Errorf("%d eval points, want 5", len(res.Points))
	}
	if res.FinalLoss >= res.Points[0].Loss {
		t.Errorf("loss did not improve over the wire: %v -> %v", res.Points[0].Loss, res.FinalLoss)
	}
}

func TestDistributedFedMP(t *testing.T) {
	res := launch(t, core.StrategyFedMP, 3, 4)
	if res.Rounds != 4 {
		t.Errorf("ran %d rounds, want 4", res.Rounds)
	}
	if res.FinalAcc <= 0 {
		t.Error("zero accuracy after distributed FedMP training")
	}
}

func TestDistributedFlexCom(t *testing.T) {
	res := launch(t, core.StrategyFlexCom, 2, 3)
	if res.Rounds != 3 {
		t.Errorf("ran %d rounds, want 3", res.Rounds)
	}
}

func TestServerConfigValidation(t *testing.T) {
	fam := testFamily()
	if _, err := Serve(fam, ServerConfig{Addr: "127.0.0.1:0", Workers: 0, Rounds: 1}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := Serve(fam, ServerConfig{Addr: "127.0.0.1:0", Workers: 1, Rounds: 0}); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestWorkerDialFailure(t *testing.T) {
	fam := testFamily()
	src := data.NewLoader(fam.DS, []int{0, 1, 2, 3}, 2, rand.New(rand.NewSource(1)))
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(fam, src, WorkerConfig{Addr: "127.0.0.1:1", Name: "w", MaxDialAttempts: 4})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("worker connected to a closed port")
		}
	case <-time.After(10 * time.Second):
		t.Error("worker dial did not fail promptly")
	}
}

func TestBadHelloRejected(t *testing.T) {
	fam := testFamily()
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	resCh := make(chan *core.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := Serve(fam, ServerConfig{
			Addr: addr, Workers: 1, Rounds: 1,
			RoundTimeout: 20 * time.Second,
			Core:         core.Config{Strategy: core.StrategySynFL, Rounds: 1, LocalIters: 1, BatchSize: 2, EvalLimit: 40, Seed: 2},
		})
		resCh <- res
		errCh <- err
	}()

	// First connection sends garbage (wrong magic) and must be rejected.
	time.Sleep(200 * time.Millisecond)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("not a frame at all\n"))
	raw.Close()

	// A real worker then joins and training completes.
	src := data.NewLoader(fam.DS, []int{0, 1, 2, 3, 4, 5}, 2, rand.New(rand.NewSource(3)))
	go func() {
		_ = RunWorker(fam, src, WorkerConfig{Addr: addr, Name: "legit"})
	}()
	res := <-resCh
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
}

// simWireParity is the oracle that both runtimes run one algorithm: three
// workers train three rounds over loopback TCP, and Serve must end at a
// global model bit-identical to core.Run's, with equal per-round traffic
// (the codec's size model against the measured frames) and ratios and
// equal evaluations. The wire's final state is its last checkpoint record,
// the same State type core.Run returns. The workers start concurrently:
// slots follow worker IDs, so worker wi trains on the simulator's
// partition i whatever order the hellos arrive in. It returns the
// simulator's result.
func simWireParity(t *testing.T, strategy core.StrategyID, quantize bool) *core.Result {
	t.Helper()
	fam := testFamily()
	const workers, rounds = 3, 3
	cfg := core.Config{
		Strategy:     strategy,
		FixedRatio:   0.5,
		Workers:      workers,
		Rounds:       rounds,
		LocalIters:   2,
		BatchSize:    4,
		EvalLimit:    80,
		Seed:         5,
		QuantizeWire: quantize,
		// The wire worker's optimiser has no weight decay; the shared
		// local step is not part of this oracle, so the simulator's decay
		// is turned off to match it.
		WeightDecay: -1,
		Clock:       simclock.Fixed{},
	}
	sim, err := core.Run(fam, cfg)
	if err != nil {
		t.Fatalf("simulation: %v", err)
	}
	srcs, err := fam.Sources(workers, core.NonIID{}, cfg.BatchSize, cfg.Seed+17)
	if err != nil {
		t.Fatal(err)
	}
	addr := reservePort(t)
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("w%d", i)
			if err := RunWorker(fam, src, WorkerConfig{Addr: addr, Name: id, ID: id}); err != nil {
				t.Errorf("worker %s: %v", id, err)
			}
		}()
	}
	dir := t.TempDir()
	wire, err := Serve(fam, ServerConfig{Addr: addr, Workers: workers, Rounds: rounds, RoundTimeout: 30 * time.Second, CheckpointDir: dir, Core: cfg})
	wg.Wait()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wireState := recoverState(t, dir)
	if wireState.Round != rounds {
		t.Fatalf("checkpoint at round %d, want %d", wireState.Round, rounds)
	}

	diff := 0
	for i, g := range sim.State.Global {
		for j, v := range g.Data {
			if math.Float32bits(v) != math.Float32bits(wireState.Global[i].Data[j]) {
				diff++
			}
		}
	}
	if diff > 0 {
		t.Errorf("%d global weights differ between core.Run and Serve after %d rounds", diff, rounds)
	}
	if len(sim.Stats) != rounds || len(wire.Stats) != rounds {
		t.Fatalf("round stats: sim %d, wire %d, want %d", len(sim.Stats), len(wire.Stats), rounds)
	}
	for r, ss := range sim.Stats {
		ws := wire.Stats[r]
		if ss.DownBytes != ws.DownBytes || ss.UpBytes != ws.UpBytes {
			t.Errorf("round %d bytes: sim down %d up %d, wire down %d up %d", ss.Round, ss.DownBytes, ss.UpBytes, ws.DownBytes, ws.UpBytes)
		}
		if ss.DownBytes <= 0 || ss.UpBytes <= 0 {
			t.Errorf("round %d bytes: down %d up %d, want positive", ss.Round, ss.DownBytes, ss.UpBytes)
		}
		if !slices.Equal(ss.Ratios, ws.Ratios) {
			t.Errorf("round %d ratios: sim %v, wire %v", ss.Round, ss.Ratios, ws.Ratios)
		}
	}
	if len(sim.Points) != len(wire.Points) {
		t.Fatalf("%d sim points, %d wire points", len(sim.Points), len(wire.Points))
	}
	for i, p := range sim.Points {
		if w := wire.Points[i]; p.Loss != w.Loss || p.Acc != w.Acc {
			t.Errorf("point %d: sim (%v, %v), wire (%v, %v)", i, p.Loss, p.Acc, w.Loss, w.Acc)
		}
	}
	return sim
}

// checkQuantizedDownlink pins that the int8 slabs, the point of wire
// quantization, cut round-1 downlink traffic below 40% of float32's.
func checkQuantizedDownlink(t *testing.T, quantized, plain *core.Result) {
	t.Helper()
	q, f := quantized.Stats[0].DownBytes, plain.Stats[0].DownBytes
	if q <= 0 || q*10 > f*4 {
		t.Errorf("quantized round-1 downlink %d bytes vs %d float32; want positive and < 40%%", q, f)
	}
}

// TestSimWireBytesParity runs the parity oracle for SynFL with float32
// frames: every round's traffic, ratios, evaluations and the final global
// model agree between core.Run and Serve.
func TestSimWireBytesParity(t *testing.T) {
	simWireParity(t, core.StrategySynFL, false)
}

// TestSimWireBytesParityQuantized runs the parity oracle for SynFL with
// wire quantization on (both runtimes apply the same lossy round trip),
// and checks the quantized downlink against a float32 simulation's.
func TestSimWireBytesParityQuantized(t *testing.T) {
	sim := simWireParity(t, core.StrategySynFL, true)
	cfg := sim.Config
	cfg.QuantizeWire = false
	plain, err := core.Run(testFamily(), cfg)
	if err != nil {
		t.Fatalf("float32 simulation: %v", err)
	}
	checkQuantizedDownlink(t, sim, plain)
}

// TestSimWireTrajectoryParity runs the parity oracle for Fixed 0.5, whose
// sub-models are pruned, with wire quantization off and on.
func TestSimWireTrajectoryParity(t *testing.T) {
	res := map[bool]*core.Result{}
	for _, quantize := range []bool{false, true} {
		t.Run(fmt.Sprintf("quantize=%v", quantize), func(t *testing.T) {
			res[quantize] = simWireParity(t, core.StrategyFixed, quantize)
		})
	}
	if res[false] != nil && res[true] != nil {
		checkQuantizedDownlink(t, res[true], res[false])
	}
}

// recoverState reads the last durable State from a checkpoint directory.
func recoverState(t *testing.T, dir string) *core.State {
	t.Helper()
	m, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, _, err := m.Recover()
	if err != nil || st == nil {
		t.Fatalf("recovering %s: state %v, error %v", dir, st, err)
	}
	return st
}

// TestLoopbackSmoke is the CI smoke round: two workers, one round, over
// loopback TCP with the binary codec (make ci runs it under -race).
func TestLoopbackSmoke(t *testing.T) {
	res := launch(t, core.StrategyFedMP, 2, 1)
	if res.Rounds != 1 {
		t.Errorf("ran %d rounds, want 1", res.Rounds)
	}
	if len(res.Stats) != 1 || res.Stats[0].Participants != 2 {
		t.Errorf("round stats %+v, want one round with 2 participants", res.Stats)
	}
}

// TestServeRejectsSimulatorOnlyOptions pins that Serve refuses every Core
// option it has no wire counterpart for, instead of dropping it silently.
func TestServeRejectsSimulatorOnlyOptions(t *testing.T) {
	fam := testFamily()
	for _, tc := range []struct {
		name string
		set  func(*core.Config)
	}{
		{"Async", func(c *core.Config) { c.Async = true }},
		{"Population", func(c *core.Config) { c.Population = &cluster.Population{Size: 10} }},
		{"Scenario", func(c *core.Config) { c.Scenario = cluster.Default(2, 1) }},
		{"Faults", func(c *core.Config) { c.Faults = cluster.FaultConfig{CrashProb: 0.1} }},
		{"FailureRate", func(c *core.Config) { c.FailureRate = 0.1 }},
		{"FaultTolerance", func(c *core.Config) { c.FaultTolerance = true }},
	} {
		cfg := core.Config{Strategy: core.StrategySynFL, Seed: 1}
		tc.set(&cfg)
		_, err := Serve(fam, ServerConfig{Addr: "127.0.0.1:0", Workers: 2, Rounds: 1, AcceptTimeout: time.Second, Core: cfg})
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: Serve returned %v, want a rejection naming the option", tc.name, err)
		}
	}
}

// TestServeStopsAtTargetAccuracy pins that the ledger's stop checks run on
// the wire: a reachable accuracy target ends the run before its round cap
// and records when it was first met, on the wall clock.
func TestServeStopsAtTargetAccuracy(t *testing.T) {
	const rounds = 30
	res := launchCfg(t, 2, rounds, core.Config{
		Strategy:       core.StrategySynFL,
		TargetAccuracy: 0.6,
		LocalIters:     2,
		BatchSize:      4,
		EvalLimit:      80,
		Seed:           5,
	})
	if res.Rounds >= rounds {
		t.Fatalf("ran all %d rounds; the target never stopped the run (final acc %v)", res.Rounds, res.FinalAcc)
	}
	if res.FinalAcc < 0.6 {
		t.Errorf("stopped at round %d with accuracy %v below the target", res.Rounds, res.FinalAcc)
	}
	if math.IsInf(res.TimeToTargetAcc, 1) || res.TimeToTargetAcc > res.Time {
		t.Errorf("TimeToTargetAcc = %v with run time %v", res.TimeToTargetAcc, res.Time)
	}
}

// TestServeStreamMetrics pins StreamMetrics on the wire: no per-round
// slices, the streaming aggregate instead.
func TestServeStreamMetrics(t *testing.T) {
	const rounds = 3
	res := launchCfg(t, 2, rounds, core.Config{
		Strategy:      core.StrategySynFL,
		StreamMetrics: true,
		LocalIters:    2,
		BatchSize:     4,
		EvalLimit:     80,
		Seed:          5,
	})
	if len(res.Points) != 0 || len(res.Stats) != 0 {
		t.Errorf("StreamMetrics run kept %d points and %d stats", len(res.Points), len(res.Stats))
	}
	st := res.Stream
	if st == nil || st.Rounds != rounds || st.Evals != rounds+1 || st.DownBytes <= 0 {
		t.Fatalf("stream aggregate %+v, want %d rounds, %d evals and traffic", st, rounds, rounds+1)
	}
	if res.FinalAcc != st.LastAcc {
		t.Errorf("FinalAcc %v, stream's last accuracy %v", res.FinalAcc, st.LastAcc)
	}
}

// TestSlotsFollowWorkerIDs pins slot assignment by stable ID: workers that
// join in reverse ID order still get slots in ID order, a slot preseeded
// from a checkpoint keeps its place, and a rejoin keeps its slot.
func TestSlotsFollowWorkerIDs(t *testing.T) {
	reg := newRegistry(4, func(string, ...any) {})
	defer reg.kill()
	reg.preseed([]codec.WorkerState{{Slot: 0, ID: "z", Name: "z"}})
	for _, id := range []string{"w2", "w1", "w0"} {
		reg.admit(newConn(newDeadConn()), &helloMsg{Name: id, ID: id})
	}
	reg.orderSlots()
	for id, want := range map[string]int{"z": 0, "w0": 1, "w1": 2, "w2": 3} {
		slot := reg.slots[id]
		if slot != want {
			t.Errorf("worker %s in slot %d, want %d", id, slot, want)
		}
		if id != "z" && (reg.names[slot] != id || reg.sess[slot].slot != slot) {
			t.Errorf("slot %d holds %q with session slot %d", slot, reg.names[slot], reg.sess[slot].slot)
		}
	}
	old := reg.sess[3]
	reg.admit(newConn(newDeadConn()), &helloMsg{Name: "w2", ID: "w2"})
	if reg.slots["w2"] != 3 || reg.sess[3] == old {
		t.Errorf("rejoin of w2 landed in slot %d", reg.slots["w2"])
	}
}
