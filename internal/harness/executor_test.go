package harness

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/design"
)

func TestValidateRejectsZeroReplicates(t *testing.T) {
	for _, reps := range []int{0, -3} {
		e := paperExperiment(t, reps)
		err := e.Validate()
		if err == nil {
			t.Fatalf("Replicates = %d: Validate should reject", reps)
		}
		if !strings.Contains(err.Error(), "Replicates") {
			t.Errorf("error should name Replicates: %v", err)
		}
		if _, err := Execute(context.Background(), e); err == nil {
			t.Errorf("Replicates = %d: Execute should reject", reps)
		}
	}
}

func TestExecuteRejectsNonFiniteResponses(t *testing.T) {
	cases := []struct {
		name string
		resp map[string]float64
	}{
		{"nil map", nil},
		{"NaN", map[string]float64{"MIPS": math.NaN()}},
		{"+Inf", map[string]float64{"MIPS": math.Inf(1)}},
		{"-Inf", map[string]float64{"MIPS": math.Inf(-1)}},
	}
	for _, c := range cases {
		e := paperExperiment(t, 1)
		e.Run = func(design.Assignment, int) (map[string]float64, error) {
			return c.resp, nil
		}
		if _, err := Execute(context.Background(), e); err == nil {
			t.Errorf("%s: Execute should reject", c.name)
		}
	}
}
