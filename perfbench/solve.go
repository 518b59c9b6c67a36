package main

import (
	"time"

	"tempart/internal/fv"
	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/runtime"
	"tempart/internal/solver"
	"tempart/internal/taskgraph"
)

// solveWorkers is the real solver's worker count.
const solveWorkers = 2

// massTol bounds the relative mass drift of the conservative Euler scheme.
const massTol = 1e-10

// solveRun is the real solver over one decomposition, with what the run
// needs to check it: the initial state and the number of iterations since.
// The check replays from the initial state because an iteration boundary
// does not drain every flux accumulator (a coarse cell updated in the last
// subiteration still owes the fine faces computed after it), so the
// conserved variables alone are not the whole state between iterations.
type solveRun struct {
	sv         *solver.Solver
	faceObjs   int64 // Σ face-task objects per iteration
	cellObjs   int64 // Σ cell-task objects per iteration
	initial    [5][]float64
	mass0      float64
	iterations int
}

func newSolveRun(m *mesh.Mesh, res *partition.Result, strat partition.Strategy) (*solveRun, error) {
	sv, err := solver.NewFromPartition(m, res, solver.Config{
		Strategy: strat, Workers: solveWorkers, Policy: runtime.WorkStealing, Model: solver.Euler,
	})
	if err != nil {
		return nil, err
	}
	s := &solveRun{sv: sv}
	for _, t := range sv.TG.Tasks {
		if t.Kind == taskgraph.FaceKind {
			s.faceObjs += int64(t.NumObjects)
		} else {
			s.cellObjs += int64(t.NumObjects)
		}
	}
	for i, a := range s.state() {
		s.initial[i] = append([]float64(nil), a...)
	}
	s.mass0 = sv.EulerState.Mass()
	return s, nil
}

// iterate runs one solver iteration and returns its wall time, its
// process CPU time and the sum of its task durations (busy time).
func (s *solveRun) iterate() (wall, cpu, busy time.Duration, err error) {
	t0, c0 := time.Now(), cpuTime()
	rep, err := s.sv.Run(1)
	wall, cpu = time.Since(t0), cpuTime()-c0
	if err != nil {
		return 0, 0, 0, err
	}
	for _, d := range rep.Durations {
		busy += d
	}
	s.iterations++
	return wall, cpu, busy, nil
}

func (s *solveRun) state() [5][]float64 {
	e := s.sv.EulerState
	return [5][]float64{e.Rho, e.Mx, e.My, e.Mz, e.E}
}

// check replays every iteration with the serial fv reference from the
// initial state and requires a bit-identical state, then bounds mass drift.
func (s *solveRun) check() error {
	ref := fv.NewEulerState(s.sv.Mesh, fv.EulerParams{})
	for i, a := range [5][]float64{ref.Rho, ref.Mx, ref.My, ref.Mz, ref.E} {
		copy(a, s.initial[i])
	}
	for i := 0; i < s.iterations; i++ {
		ref.RunIteration()
	}
	names := [5]string{"rho", "mx", "my", "mz", "E"}
	want := [5][]float64{ref.Rho, ref.Mx, ref.My, ref.Mz, ref.E}
	for i, a := range s.state() {
		if err := checkBitIdentical("solver state "+names[i], a, want[i]); err != nil {
			return err
		}
	}
	return checkMassDrift(s.mass0, s.sv.EulerState.Mass())
}
