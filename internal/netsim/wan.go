package netsim

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/xft-consensus/xft/internal/smr"
)

// LinkProfile describes the round-trip latency distribution of one
// datacenter pair, in the format of the paper's Table 3: average,
// 99.99th percentile, 99.999th percentile and maximum RTT.
type LinkProfile struct {
	AvgRTT, P9999, P99999, MaxRTT time.Duration
}

// WANModel is a LatencyModel for geo-replicated deployments. Nodes are
// mapped to regions; each region pair has a LinkProfile. Sampled RTTs
// reproduce the profile's average and tail quantiles:
//
//   - with probability 1e-5 the RTT lands in [P99999, Max) — the
//     "network fault" events the paper observed lasting minutes;
//   - with probability 1e-4 (minus the above) it lands in
//     [P9999, P99999) — rare virtualization/congestion spikes;
//   - otherwise it is Avg scaled by a small exponential jitter whose
//     mean is 1, so the long-run average matches Avg.
//
// One-way delays are half an RTT sample, matching how the paper
// derives Δ from RTT measurements (Section 5.1.1).
type WANModel struct {
	// Region maps a node to its region index.
	Region func(smr.NodeID) int
	// Profiles[i][j] describes the link between regions i and j. The
	// matrix must be symmetric; Profiles[i][i] is the intra-region
	// profile (typically sub-millisecond).
	Profiles [][]LinkProfile
	// DisableTails, when set, suppresses the 1e-4/1e-5 spike branches.
	// Protocol throughput experiments use this so that a handful of
	// 80-second outliers do not dominate short simulated runs; Table 3
	// regeneration keeps tails on.
	DisableTails bool
}

// SampleRTT draws one round-trip time for the given region pair.
func (w *WANModel) SampleRTT(rng *rand.Rand, ri, rj int) time.Duration {
	p := w.Profiles[ri][rj]
	if !w.DisableTails {
		u := rng.Float64()
		if u < 1e-5 {
			// Deep tail: between the 99.999th percentile and the max,
			// biased toward the percentile.
			f := rng.Float64()
			f = f * f
			return p.P99999 + time.Duration(f*float64(p.MaxRTT-p.P99999))
		}
		if u < 1e-4 {
			f := rng.Float64()
			f = f * f * f
			return p.P9999 + time.Duration(f*float64(p.P99999-p.P9999))
		}
	}
	// Common case: avg * (0.9 + 0.1*Exp(1)); the multiplier has mean 1.
	mult := 0.9 + 0.1*rng.ExpFloat64()
	// Keep the common case below the 99.99th percentile so quantiles
	// stay calibrated.
	d := time.Duration(float64(p.AvgRTT) * mult)
	if p.P9999 > 0 && d >= p.P9999 {
		d = p.P9999 - time.Millisecond
	}
	return d
}

// OneWay implements LatencyModel.
func (w *WANModel) OneWay(rng *rand.Rand, from, to smr.NodeID) time.Duration {
	ri, rj := w.Region(from), w.Region(to)
	if ri == rj {
		// Intra-region: use the profile if present, else 0.3 ms.
		p := w.Profiles[ri][rj]
		if p.AvgRTT == 0 {
			return 300 * time.Microsecond
		}
	}
	return w.SampleRTT(rng, ri, rj) / 2
}

// SymmetricProfiles builds a full symmetric profile matrix from the
// upper triangle given as a map of [i][j] (i < j) plus a default
// intra-region profile.
func SymmetricProfiles(numRegions int, upper map[[2]int]LinkProfile, intra LinkProfile) [][]LinkProfile {
	m := make([][]LinkProfile, numRegions)
	for i := range m {
		m[i] = make([]LinkProfile, numRegions)
		m[i][i] = intra
	}
	for k, p := range upper {
		i, j := k[0], k[1]
		m[i][j] = p
		m[j][i] = p
	}
	return m
}

// MeasureRTTQuantiles samples n RTTs for a region pair and returns
// (avg, q9999, q99999, max). Used to regenerate Table 3.
func (w *WANModel) MeasureRTTQuantiles(rng *rand.Rand, ri, rj int, n int) (avg, q9999, q99999, maxRTT time.Duration) {
	samples := make([]float64, n)
	var sum float64
	for i := range samples {
		v := float64(w.SampleRTT(rng, ri, rj))
		samples[i] = v
		sum += v
	}
	slices.Sort(samples)
	quant := func(q float64) time.Duration {
		idx := int(math.Ceil(q*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		return time.Duration(samples[idx])
	}
	return time.Duration(sum / float64(n)), quant(0.9999), quant(0.99999), time.Duration(samples[n-1])
}
