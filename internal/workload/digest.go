package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
)

// CanonicalDigest returns a SHA-256 over a canonical serialization of
// everything the equivalence contract compares: every QueryResult field
// (floats as IEEE-754 bit patterns, NaN normalized) plus the post-run budget
// metrics the experiment harnesses read. Two runs have equal digests exactly
// when the equivalence suite's result and metric comparisons would pass, so
// a committed digest (testdata/golden/) stands in for recomputing the batch
// reference.
func (r *Run) CanonicalDigest() string {
	h := sha256.New()
	var buf []byte
	for _, res := range r.Results {
		buf = fmt.Appendf(buf[:0], "result|%s|%s|%d|%d|%t|%d|%d|",
			res.Querier, res.Product, res.Index, res.Batch, res.Executed,
			res.DeniedReports, res.BiasedReports)
		buf = appendFloat(buf, res.Epsilon)
		buf = appendFloat(buf, res.Truth)
		buf = appendFloat(buf, res.Estimate)
		buf = appendFloat(buf, res.RMSRE)
		buf = appendFloat(buf, res.BiasEstimate)
		buf = fmt.Appendf(buf, "%d|%d|", res.FirstEpoch, res.LastEpoch)
		buf = appendFloat(buf, res.avgBudgetAfter)
		h.Write(append(buf, '\n'))
	}
	avg, max := r.BudgetStats()
	buf = append(buf[:0], "metrics|"...)
	buf = appendFloat(buf, avg)
	buf = appendFloat(buf, max)
	buf = appendFloat(buf, r.PopulationAvgBudget())
	buf = appendFloat(buf, r.ExecutedFraction())
	buf = strconv.AppendInt(buf, int64(r.RequestedDeviceEpochs()), 10)
	buf = append(buf, "|\npairs|"...)
	for _, v := range r.PerPairAverages() { // millions at Criteo scale
		if buf = appendFloat(buf, v); len(buf) >= 4096 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// appendFloat serializes one float bit-exactly. NaN is normalized to a single
// token: hardware NaN payloads are not specified cross-platform, and the
// equivalence comparisons treat all NaNs as equal anyway.
func appendFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) {
		return append(dst, "nan|"...)
	}
	return appendBits(dst, math.Float64bits(v))
}

// appendBits appends bits as 16 lower-case hex digits and a '|': the bytes
// of fmt's "%016x|", without its cost.
func appendBits(dst []byte, bits uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, digits[bits>>shift&0xf])
	}
	return append(dst, '|')
}
