package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile. A p99
// therefore needs at least 1000 samples: from fewer, the "1% tail" would
// rest on fewer than ten observations and move with every stray one.
const minTail = 10

// errFewSamples reports a percentile requested from too small a sample set.
var errFewSamples = errors.New("too few samples")

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples. It
// refuses to answer unless at least minTail samples lie beyond the rank.
func percentile(samples []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0,1)", p)
	}
	n := len(samples)
	if float64(n)*(1-p) < minTail-1e-9 {
		need := int(math.Ceil(minTail/(1-p) - 1e-9))
		return 0, fmt.Errorf("%w: p%g needs %d samples, have %d", errFewSamples, p*100, need, n)
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := int(math.Ceil(p*float64(n))) - 1
	return s[rank], nil
}

// median is the middle value of a small set of repeated measurements (the
// per-round set-up times), with no tail requirement.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// blockSamples is the smallest block blockPercentile takes a percentile of:
// enough for a p99 with minTail samples beyond it.
const blockSamples = 1000

// blocks cuts the rounds' samples, in order, into blocks of at least
// blockSamples: a long round gives several blocks, short rounds join up,
// and a short remainder joins the block before it.
func blocks(rounds [][]float64) [][]float64 {
	var out [][]float64
	var cur []float64
	for _, xs := range rounds {
		cur = append(cur, xs...)
		if len(cur) < blockSamples {
			continue
		}
		k := len(cur) / blockSamples
		for i := range k {
			end := (i + 1) * blockSamples
			if i == k-1 {
				end = len(cur)
			}
			out = append(out, cur[i*blockSamples:end])
		}
		cur = nil
	}
	switch {
	case len(out) == 0:
		out = [][]float64{cur}
	case len(cur) > 0:
		out[len(out)-1] = append(slices.Clip(out[len(out)-1]), cur...)
	}
	return out
}

// blockPercentile takes the p-quantile of every block of the rounds'
// samples and returns the median of those and the block count. A burst of
// disk or scheduler contention then moves a few blocks' figures, not the
// run's, as it would a pooled tail.
func blockPercentile(rounds [][]float64, p float64) (float64, int, error) {
	bs := blocks(rounds)
	vs := make([]float64, len(bs))
	for i, b := range bs {
		v, err := percentile(b, p)
		if err != nil {
			return 0, 0, err
		}
		vs[i] = v
	}
	return median(vs), len(bs), nil
}

// timedRound is one measured round's timed phase.
type timedRound struct {
	calls int64
	wall  time.Duration
}

// blockRate is the median call rate over blocks of consecutive rounds of at
// least blockSamples calls each; a short remainder joins the last block.
func blockRate(rounds []timedRound) float64 {
	var bs []timedRound
	var cur timedRound
	for _, t := range rounds {
		cur.calls += t.calls
		cur.wall += t.wall
		if cur.calls >= blockSamples {
			bs = append(bs, cur)
			cur = timedRound{}
		}
	}
	switch {
	case len(bs) == 0:
		bs = append(bs, cur)
	case cur.calls > 0:
		bs[len(bs)-1].calls += cur.calls
		bs[len(bs)-1].wall += cur.wall
	}
	rates := make([]float64, len(bs))
	for i, b := range bs {
		rates[i] = float64(b.calls) / b.wall.Seconds()
	}
	return median(rates)
}
