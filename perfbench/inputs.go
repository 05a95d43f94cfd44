package main

import (
	"fmt"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/runstore"
)

// The synthetic experiment every workload runs: a 2^5 full factorial
// whose responses are drawn from the seed before any timing starts. The
// runner only looks them up, so a unit costs microseconds and the
// layers around it carry the work.
const experimentName = "perfbench 2^5"

var factors = []design.Factor{
	design.MustFactor("buffer", "64MB", "1GB"),
	design.MustFactor("threads", "1", "8"),
	design.MustFactor("layout", "row", "column"),
	design.MustFactor("compress", "off", "on"),
	design.MustFactor("index", "none", "btree"),
}

var responseNames = []string{"latency_ms", "throughput"}

// rng is splitmix64: a seedable generator with a stable sequence, so a
// seed names the same inputs on every Go version.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// inputs is the seeded design and its response table.
type inputs struct {
	seed      int64
	design    *design.Design
	reps      int
	rowOf     []int          // factor-level bit pattern -> design row
	hashes    []string       // design row -> assignment hash
	rowOfHash map[string]int // assignment hash -> design row
	effects   []float64      // per-factor multiplicative effect of the high level
}

func newInputs(seed int64, reps int) (*inputs, error) {
	d, err := design.TwoLevelFull(factors)
	if err != nil {
		return nil, err
	}
	d.Replicates = reps
	in := &inputs{seed: seed, design: d, reps: reps,
		rowOf: make([]int, d.NumRuns()), hashes: make([]string, d.NumRuns()), rowOfHash: map[string]int{}}
	r := newRNG(seed, 0)
	for range factors {
		in.effects = append(in.effects, 0.5+1.5*r.float())
	}
	for row := 0; row < d.NumRuns(); row++ {
		a, err := d.Assignment(row)
		if err != nil {
			return nil, err
		}
		in.rowOf[cellOf(a)] = row
		in.hashes[row] = runstore.AssignmentHash(a)
		in.rowOfHash[in.hashes[row]] = row
	}
	return in, nil
}

// cellOf is the factor-level bit pattern of an assignment.
func cellOf(a design.Assignment) int {
	c := 0
	for i, f := range factors {
		if a[f.Name] == f.Levels[1] {
			c |= 1 << i
		}
	}
	return c
}

// responses is the seeded measurement of one unit in one run of the
// experiment. run 0 is what the local and fleet workloads execute;
// history runs 1.. drift from it, some cells regressing.
func (in *inputs) responses(run, row, rep int) map[string]float64 {
	a, _ := in.design.Assignment(row)
	base := 10.0
	for i, f := range factors {
		if a[f.Name] == f.Levels[1] {
			base *= in.effects[i]
		}
	}
	cell := newRNG(in.seed, uint64(run)<<20|uint64(row)<<1|1)
	if run > 0 && cell.float() < 0.2 {
		base *= 1.2 + 0.3*cell.float() // a regressed cell in this run
	}
	noise := newRNG(in.seed, uint64(run)<<40|uint64(row)<<20|uint64(rep)<<1)
	lat := base * (1 + 0.1*(noise.float()-0.5))
	return map[string]float64{"latency_ms": lat, "throughput": 1000 / lat}
}

// experiment builds the harness experiment with the given runner.
func (in *inputs) experiment(name string, run harness.RunFunc) *harness.Experiment {
	return &harness.Experiment{Name: name, Design: in.design, Responses: responseNames, Run: run}
}

// lookup is the plain runner body: the precomputed responses of one
// unit.
func (in *inputs) lookup(table [][]map[string]float64, a design.Assignment, rep int) (map[string]float64, error) {
	row := in.rowOf[cellOf(a)]
	if rep < 0 || rep >= len(table[row]) {
		return nil, fmt.Errorf("perfbench: replicate %d outside the design", rep)
	}
	return table[row][rep], nil
}

// table precomputes the responses of one run of the experiment.
func (in *inputs) table(run int) [][]map[string]float64 {
	t := make([][]map[string]float64, in.design.NumRuns())
	for row := range t {
		t[row] = make([]map[string]float64, in.reps)
		for rep := range t[row] {
			t[row][rep] = in.responses(run, row, rep)
		}
	}
	return t
}

// records lists one run of the experiment as store records, in design
// order.
func (in *inputs) records(name string, run int) []runstore.Record {
	var out []runstore.Record
	for row := 0; row < in.design.NumRuns(); row++ {
		a, _ := in.design.Assignment(row)
		for rep := 0; rep < in.reps; rep++ {
			out = append(out, runstore.Record{Experiment: name, Row: row, Replicate: rep,
				Hash: in.hashes[row], Assignment: a, Responses: in.responses(run, row, rep)})
		}
	}
	return out
}
