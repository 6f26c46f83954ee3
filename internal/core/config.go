// Package core implements Jury, the paper's contribution: a DRL-based
// congestion controller whose fairness is decoupled from the learned policy.
//
// The pipeline (Fig. 2 of the paper) has three blocks:
//
//  1. Signal transformation (§3.1): raw per-interval statistics become
//     bandwidth-agnostic signals — the RTT difference ΔRTT = RTT_t − RTT_{t−1}
//     (Eq. 1) and the loss ratio (1−L_t)/(1−L_{t−1}) feed the policy; the
//     multiplicative rate change x_t/x_{t−1} and throughput change
//     thr_t/thr_{t−1} feed the occupancy estimator.
//  2. A policy (DRL actor or the deterministic reference policy) maps the
//     stacked signal history to a decision range (μ, δ). Because the inputs
//     carry no bandwidth information, every flow sharing a bottleneck
//     computes the same range.
//  3. Post-processing (§3.2): the flow's bandwidth-occupancy estimate
//     ratio_bw (Eq. 5) picks the point a = μ + (1−2·ratio_bw)·δ (Eq. 6)
//     inside the range, making large flows conservative and small flows
//     aggressive; the action multiplicatively updates cwnd (Eq. 7) and the
//     pacing rate follows (Eq. 8).
package core

import (
	"fmt"
	"time"
)

// Config holds Jury's hyperparameters. New uses every field as given;
// DefaultConfig holds Table 2 of the paper.
type Config struct {
	// Interval is the control interval (Table 2: 30 ms).
	Interval time.Duration
	// Alpha is the action control coefficient of Eq. 7 (Table 2: 0.025).
	Alpha float64
	// Beta1 weighs the RTT term of the reward, with RTT measured in
	// microseconds (Table 2: 1e-5).
	Beta1 float64
	// Beta2 weighs the loss term of the reward (Table 2: 5).
	Beta2 float64
	// Zeta is the concave throughput exponent of Eq. 9, 0 < ζ < 1.
	Zeta float64
	// HistoryLen is how many intervals of signals are stacked into the
	// policy input state (§3.5 "stack signals from a window of intervals").
	HistoryLen int

	// ExploreLow/ExploreHigh bound the near-zero action band that triggers
	// the exploration rule, and ExploreProb is the probability of replacing
	// such an action with ±1 (§3.4 "Exploration Action").
	ExploreLow  float64
	ExploreHigh float64
	ExploreProb float64

	// OccupancyWindow is the moving-average length for the occupancy
	// estimate, and OccupancyMin/Max are the outlier bounds (§3.4 "Signal
	// Averaging and Filtering").
	OccupancyWindow int
	OccupancyMin    float64
	OccupancyMax    float64

	// Seed drives the exploration-action coin flips.
	Seed uint64
}

// The implementation constants documented in DESIGN.md.
const (
	// minIntervalPackets is the statistics-significance threshold: with
	// fewer feedback packets in an interval, Jury maximally increases the
	// rate instead of consulting the model (§3.4, doubling as slow start).
	minIntervalPackets = 8

	// signalClamp bounds each normalized input signal to [-signalClamp,
	// +signalClamp] before it reaches the policy.
	signalClamp = 1.0

	// minCwnd floors the congestion window (packets).
	minCwnd = 2
	// maxCwnd caps the congestion window (packets). Eq. 7 is a pure
	// multiplicative update; without a ceiling a flow whose signals go flat
	// at a saturated bottleneck (RTT pinned at the full buffer, loss steady
	// so the ratio signal telescopes to zero) ratchets its window upward
	// without bound. Deployed Jury inherits the kernel's window limit; the
	// emulation needs an explicit one.
	maxCwnd = 1 << 17
	// collapseLoss is the congestion-collapse guard: when an interval's
	// loss rate reaches this level, the window is far beyond what the path
	// delivers and Jury retreats maximally instead of consulting the model
	// (generalizing the §3.4 blackout rule). The policy itself cannot see
	// this — its loss signal carries only interval-to-interval *changes*,
	// so a steady severe loss level is invisible to it by design. Well
	// above any random-loss environment Jury must stay efficient in
	// (Fig. 10c uses ≤1%).
	collapseLoss = 0.1
)

// DefaultConfig returns the paper's hyperparameters (Table 2) plus the
// settable implementation values documented in DESIGN.md.
func DefaultConfig() Config {
	return Config{
		Interval:        30 * time.Millisecond,
		Alpha:           0.025,
		Beta1:           1e-5,
		Beta2:           5,
		Zeta:            0.9,
		HistoryLen:      8,
		ExploreLow:      -0.05,
		ExploreHigh:     0.05,
		ExploreProb:     0.5,
		OccupancyWindow: 32,
		OccupancyMin:    0.02,
		OccupancyMax:    1.0,
		Seed:            1,
	}
}

// Validate reports the first configuration problem, if any.
func (c Config) Validate() error {
	switch {
	case c.Interval <= 0:
		return fmt.Errorf("core: non-positive control interval %v", c.Interval)
	case c.Alpha <= 0 || c.Alpha >= 1:
		return fmt.Errorf("core: alpha %v outside (0,1)", c.Alpha)
	case c.Zeta <= 0 || c.Zeta >= 1:
		return fmt.Errorf("core: zeta %v outside (0,1) (Eq. 9 requires 0<ζ<1)", c.Zeta)
	case c.HistoryLen < 1:
		return fmt.Errorf("core: history length %d < 1", c.HistoryLen)
	case c.ExploreLow > c.ExploreHigh:
		return fmt.Errorf("core: exploration band [%v,%v] inverted", c.ExploreLow, c.ExploreHigh)
	case c.OccupancyWindow < 1:
		return fmt.Errorf("core: occupancy window %d < 1", c.OccupancyWindow)
	case c.OccupancyMin < 0 || c.OccupancyMax > 1 || c.OccupancyMin >= c.OccupancyMax:
		return fmt.Errorf("core: occupancy bounds [%v,%v] invalid", c.OccupancyMin, c.OccupancyMax)
	}
	return nil
}

// StateDim reports the policy input width: HistoryLen stacked intervals of
// the two bandwidth-agnostic signals (ΔRTT, loss ratio).
func (c Config) StateDim() int { return 2 * c.HistoryLen }

// TrainingDomain is the training-environment distribution of Table 1.
type TrainingDomain struct {
	MinBandwidth float64       // bits/second
	MaxBandwidth float64       // bits/second
	MinRTT       time.Duration // base round-trip
	MaxRTT       time.Duration
	MinBufferBDP float64 // buffer as a multiple of the BDP
	MaxBufferBDP float64
	MinLoss      float64
	MaxLoss      float64
	MinFlows     int // competing flows simulated during training (§5)
	MaxFlows     int
}

// DefaultTrainingDomain returns Table 1: 20–100 Mbps, 10–60 ms base RTT,
// 0.8–1.5 BDP buffers, 0–0.1% loss, with 2–10 competing flows.
func DefaultTrainingDomain() TrainingDomain {
	return TrainingDomain{
		MinBandwidth: 20e6,
		MaxBandwidth: 100e6,
		MinRTT:       10 * time.Millisecond,
		MaxRTT:       60 * time.Millisecond,
		MinBufferBDP: 0.8,
		MaxBufferBDP: 1.5,
		MinLoss:      0,
		MaxLoss:      0.001,
		MinFlows:     2,
		MaxFlows:     10,
	}
}
