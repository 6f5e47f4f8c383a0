// Package trace provides the workload generators the experiments drive
// traffic with: fixed-size streams and an IMC-2010-like data-center
// packet-size mixture (Benson et al., "Network Traffic Characteristics of
// Data Centers in the Wild"), which the paper's §8.1.1 mixed-size
// forwarding experiment replays.
package trace

import "flexdriver/internal/sim"

// SizeDist is a discrete packet-size distribution.
type SizeDist struct {
	sizes   []int
	weights []float64
	cum     []float64
}

// NewSizeDist builds a distribution from parallel size/weight slices.
func NewSizeDist(sizes []int, weights []float64) *SizeDist {
	d := &SizeDist{sizes: sizes, weights: weights}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	acc := 0.0
	for _, w := range weights {
		acc += w / sum
		d.cum = append(d.cum, acc)
	}
	return d
}

// IMC2010 approximates the bimodal data-center packet-size distribution
// of the IMC 2010 study: most packets are small (ACK/control-dominated,
// under 200 B) with a secondary mode at full MTU. Mean ~= 246 B.
func IMC2010() *SizeDist {
	return NewSizeDist(
		[]int{64, 128, 256, 576, 1500},
		[]float64{0.70, 0.10, 0.06, 0.04, 0.10},
	)
}

// Sample draws one packet size.
func (d *SizeDist) Sample(r *sim.Rand) int {
	u := r.Float64()
	for i, c := range d.cum {
		if u <= c {
			return d.sizes[i]
		}
	}
	return d.sizes[len(d.sizes)-1]
}

// Mean returns the distribution's expected size in bytes.
func (d *SizeDist) Mean() float64 {
	var sum, wsum float64
	for i := range d.sizes {
		sum += float64(d.sizes[i]) * d.weights[i]
		wsum += d.weights[i]
	}
	return sum / wsum
}
