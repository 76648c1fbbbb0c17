package transport

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fedmp/internal/core"
	"fedmp/internal/data"
	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/transport/checkpoint"
)

// evalWireFamily is testFamily with a 300-example test set: five
// evaluation chunks per evaluation, the last one partial.
func evalWireFamily() *core.ImageFamily {
	fam := testFamily()
	fam.DS = data.Generate("wire-tiny-eval", data.Config{
		Classes: 4, C: 1, H: 8, W: 8,
		TrainSize: 240, TestSize: 300, Noise: 0.5, MaxShift: 0, Seed: 77,
	})
	return fam
}

// runPinned runs a SynFL schedule over loopback with one slowWorker per
// entry of delays. Workers join one at a time, so worker i always holds
// slot i and trains on partition i; worker i answers every assignment
// after delays[i]. It returns the server result and the final global model
// read back from the checkpoint directory.
func runPinned(t *testing.T, fam *core.ImageFamily, delays []time.Duration, rounds int) (*core.Result, []*tensor.Tensor) {
	t.Helper()
	addr := reservePort(t)
	dir := t.TempDir()
	n := len(delays)
	joined := make(chan struct{}, n)
	cfg := ServerConfig{
		Addr:          addr,
		Workers:       n,
		Rounds:        rounds,
		RoundTimeout:  30 * time.Second,
		CheckpointDir: dir,
		Logf: func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), " joined: ") {
				joined <- struct{}{}
			}
		},
		Core: core.Config{
			Strategy:   core.StrategySynFL,
			Rounds:     rounds,
			LocalIters: 2,
			BatchSize:  4,
			EvalLimit:  -1,
			Seed:       5,
		},
	}
	var res *core.Result
	var serveErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, serveErr = Serve(fam, cfg)
	}()
	part := data.PartitionIID(fam.DS, n, rand.New(rand.NewSource(9)))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		src := data.NewLoader(fam.DS, part[i], 4, rand.New(rand.NewSource(int64(i)+100)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slowWorker(t, fam, addr, src, fmt.Sprintf("pinned-%d", i), delays[i])
		}(i)
		select {
		case <-joined:
		case <-time.After(20 * time.Second):
			t.Fatalf("worker %d never joined", i)
		}
	}
	<-done
	wg.Wait()
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	m, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	snap, _, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Round != rounds {
		t.Fatalf("checkpoint holds %+v, want round %d", snap, rounds)
	}
	return res, snap.Global
}

// TestServeAggregateIndependentOfArrivalOrder reverses the order in which
// three workers' results reach the server. Aggregation sorts by worker ID,
// so the final global model is bit-identical either way.
func TestServeAggregateIndependentOfArrivalOrder(t *testing.T) {
	fam := testFamily()
	step := 150 * time.Millisecond
	_, forward := runPinned(t, fam, []time.Duration{0, step, 2 * step}, 3)
	_, reversed := runPinned(t, fam, []time.Duration{2 * step, step, 0}, 3)
	for i := range forward {
		for j, v := range forward[i].Data {
			if math.Float32bits(v) != math.Float32bits(reversed[i].Data[j]) {
				t.Fatalf("tensor %d element %d: %v with results in slot order, %v reversed", i, j, v, reversed[i].Data[j])
			}
		}
	}
}

// TestServeShardedEvalDeterminism covers the wire runtime's evaluator: with
// five evaluation chunks, Points are identical at GOMAXPROCS 1 and 8, and
// the final Point equals serial core.EvalChunked of the final global model.
func TestServeShardedEvalDeterminism(t *testing.T) {
	fam := evalWireFamily()
	delays := []time.Duration{0, 0}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, _ := runPinned(t, fam, delays, 2)
	runtime.GOMAXPROCS(8)
	parallel, global := runPinned(t, fam, delays, 2)
	if len(serial.Points) != len(parallel.Points) {
		t.Fatalf("%d points at GOMAXPROCS 1, %d at 8", len(serial.Points), len(parallel.Points))
	}
	for i, p := range parallel.Points {
		s := serial.Points[i]
		if math.Float64bits(p.Loss) != math.Float64bits(s.Loss) || p.Acc != s.Acc {
			t.Errorf("point %d: (%v, %v) at GOMAXPROCS 8, (%v, %v) at 1", i, p.Loss, p.Acc, s.Loss, s.Acc)
		}
	}
	net, err := fam.BuildNet(fam.FullDesc(), 5)
	if err != nil {
		t.Fatal(err)
	}
	nn.SetWeights(net, global)
	loss, acc := core.EvalChunked(net, fam.TestBatch(-1), 64)
	last := parallel.Points[len(parallel.Points)-1]
	if math.Float64bits(last.Loss) != math.Float64bits(loss) || last.Acc != acc {
		t.Errorf("final point (%v, %v), serial EvalChunked (%v, %v)", last.Loss, last.Acc, loss, acc)
	}
}
