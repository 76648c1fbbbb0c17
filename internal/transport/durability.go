package transport

import (
	"errors"

	"fedmp/internal/transport/codec"
)

// ErrAborted reports that Serve stopped because its Abort channel fired
// before the schedule finished. Every round completed before the abort is
// durable when a checkpoint directory is configured; a restarted server
// resumes from the round after the last one it closed.
var ErrAborted = errors.New("transport: server aborted")

// preseed restores the identity table from a recovered snapshot (its slots
// already validated by the ledger's Restore) so workers reconnecting after
// a server restart land back in their old slots and keep their bandit
// state, ratio history and per-slot timing. Must run before the accept
// loop starts.
func (r *registry) preseed(ws []codec.WorkerState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range ws {
		if w.ID != "" {
			r.slots[w.ID] = w.Slot
		}
		r.names[w.Slot] = w.Name
		r.next = max(r.next, w.Slot+1)
	}
	r.fresh = r.next
}

// label stamps each slot's stable ID (empty when the worker never presented
// one — it cannot rejoin across a restart) and display name into a
// snapshot's worker table, which holds one entry per slot in slot order.
func (r *registry) label(ws []codec.WorkerState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, slot := range r.slots {
		ws[slot].ID = id
	}
	for slot := range ws {
		ws[slot].Name = r.names[slot]
	}
}

// kill tears down every connection without the shutdown handshake,
// simulating a crash: workers see a broken session instead of an orderly
// goodbye and enter their reconnect loops, which is exactly the client
// behaviour a restarted server relies on.
func (r *registry) kill() {
	r.mu.Lock()
	r.aborted = true
	r.mu.Unlock()
	r.closeDone()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.sess {
		if s == nil {
			continue
		}
		closeLogged(s.c, r.logf, "killed connection")
		r.sess[i] = nil
		r.state[i] = stateDown
	}
}
