// Package rl implements the reinforcement-learning substrate the paper
// trains Jury with (§3.5): an experience replay buffer, DDPG-style
// actor-critic updates with the three TD3 additions (clipped double
// Q-learning, delayed policy updates, target policy smoothing), and a
// Gym-like environment interface plus parallel experience collection.
package rl

import (
	"repro/internal/simcore"
)

// Transition is one (s, a, r, s', done) tuple.
type Transition struct {
	State     []float64
	Action    []float64
	Reward    float64
	NextState []float64
	Done      bool
}

// ReplayBuffer is a fixed-capacity ring of transitions with uniform
// sampling.
type ReplayBuffer struct {
	buf  []Transition
	next int
	n    int
	idx  []int // preallocated sampling scratch, sized on first use
}

// NewReplayBuffer returns an empty buffer with the given capacity.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &ReplayBuffer{buf: make([]Transition, capacity)}
}

// Add inserts a transition, evicting the oldest when full.
func (r *ReplayBuffer) Add(t Transition) {
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// Len reports the number of stored transitions.
func (r *ReplayBuffer) Len() int { return r.n }

// SampleIndices draws batch positions uniformly with replacement into the
// buffer's preallocated index scratch and returns it (valid until the next
// SampleIndices call). The buffer must not be empty. Steady state allocates
// nothing.
func (r *ReplayBuffer) SampleIndices(rng *simcore.RNG, batch int) []int {
	if cap(r.idx) < batch {
		r.idx = make([]int, batch)
	}
	idx := r.idx[:batch]
	for i := range idx {
		idx[i] = int(rng.Intn(r.n))
	}
	return idx
}

// At returns the stored transition at buffer position i (as produced by
// SampleIndices). The pointer is valid until Add overwrites the slot.
func (r *ReplayBuffer) At(i int) *Transition { return &r.buf[i] }

// Env is the Gym-like environment interface Jury's training loop drives.
// Implementations wrap the network emulator (see internal/core).
type Env interface {
	// Reset starts a new episode and returns the initial state.
	Reset() []float64
	// Step applies an action and returns the next state, reward, and
	// whether the episode finished.
	Step(action []float64) (next []float64, reward float64, done bool)
}
