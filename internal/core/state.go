package core

import (
	"fmt"

	"fedmp/internal/bandit"
	"fedmp/internal/transport/codec"
)

// State is a run's complete resumable snapshot at the close of a round: the
// aggregated global model, the scalar and per-worker bookkeeping the
// strategies read through RoundInfo, and one Workers entry per slot with
// its last ratio and bandit state. A run resumed from a State continues at
// Round+1 exactly where the original left off — same global weights, same
// loss baseline for the Eq. 8 rewards, same bandit statistics. It is the
// codec's durable snapshot: the TCP runtime checkpoints it (adding each
// slot's stable worker ID and name) and the simulator resumes from it via
// RunFrom.
type State = codec.Snapshot

// BanditPersistent is implemented by strategies whose per-worker ratio
// policies survive a restart. Strategies without durable policy state simply
// don't implement it; their checkpoints carry no bandit payload.
type BanditPersistent interface {
	// ExportBandits snapshots every worker's policy (nil entries for
	// policies that keep no state).
	ExportBandits() []*bandit.State
	// RestoreBandits loads previously exported policy states. A nil or
	// empty slice is a no-op; a length mismatch or incompatible state is
	// an error and leaves the strategy unchanged.
	RestoreBandits(sts []*bandit.State) error
}

// RunFrom resumes a synchronous run from a previously exported State: the
// engine is rebuilt exactly as Run builds it (same strategy, sources and
// device scenario for the same Config), the snapshot is injected, and rounds
// continue from st.Round+1 until the configured budget. The returned Result
// covers only the resumed portion — its Points start with a re-evaluation at
// st.Round — but round numbers and the virtual clock continue the original
// timeline, so trajectories from the two segments concatenate cleanly.
func RunFrom(fam Family, cfg Config, st *State) (*Result, error) {
	r, normCfg, err := newRunner(fam, cfg)
	if err != nil {
		return nil, err
	}
	if normCfg.Async {
		return nil, fmt.Errorf("core: RunFrom supports synchronous runs only")
	}
	if err := r.led.Restore(st); err != nil {
		return nil, err
	}
	// In a synchronous run the virtual clock and the round-time accumulator
	// advance in lockstep.
	r.now = st.RoundSum
	// Re-evaluate the restored model as the resumed trajectory's baseline
	// point; it must match the original run's evaluation at the same round.
	r.led.Evaluate(st.Round)
	return r.finish(r.runSync(st.Round + 1))
}

// finish seals the Result after the round loop (shared by Run and RunFrom).
func (r *runner) finish(err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	res := r.led.Result()
	res.Events = int64(r.sched.Processed())
	if !r.cfg.Async {
		res.State = r.led.State()
	}
	return res, nil
}
