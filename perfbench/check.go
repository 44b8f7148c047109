package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"

	"cimmlc"
)

// verifyTol is the float-reference tolerance conformance uses for
// Program.Verify and Pipeline.Verify.
const verifyTol = 0.05

// errMismatch marks a correctness failure: the run reports correct=false
// and exits non-zero, so a wrong output never counts as a slow success.
var errMismatch = errors.New("output mismatch")

func mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

// sameBits checks that two output maps hold the same node IDs with tensors
// of equal shape and bit-identical float32 data.
func sameBits(got, want map[int]*cimmlc.Tensor) error {
	if len(got) != len(want) {
		return mismatchf("%d outputs, want %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			return mismatchf("output node %d missing", id)
		}
		if !slices.Equal(g.Shape(), w.Shape()) {
			return mismatchf("node %d shape %v, want %v", id, g.Shape(), w.Shape())
		}
		gd, wd := g.Data(), w.Data()
		for i := range wd {
			if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
				return mismatchf("node %d element %d = %v, want %v", id, i, gd[i], wd[i])
			}
		}
	}
	return nil
}

// sameReport checks that two compilations produced identical performance
// reports, per-operator timings included.
func sameReport(got, want *cimmlc.Report) error {
	if !reflect.DeepEqual(got, want) {
		return mismatchf("report differs: cycles %v vs %v, energy %v vs %v",
			got.Cycles, want.Cycles, got.Energy, want.Energy)
	}
	return nil
}

// sameHeadline is the cheap per-operation form of sameReport used inside
// timed loops: the headline figures the model_* metrics are built from.
func sameHeadline(got, want *cimmlc.Report) error {
	if got.Cycles != want.Cycles || got.Energy != want.Energy ||
		got.PeakPower.Total() != want.PeakPower.Total() || got.XBsUsed != want.XBsUsed {
		return mismatchf("report differs: cycles %v vs %v, energy %v vs %v",
			got.Cycles, want.Cycles, got.Energy, want.Energy)
	}
	return nil
}
