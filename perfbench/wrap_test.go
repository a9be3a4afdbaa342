package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"cmpnurapid/internal/experiments"
)

var allDesigns = []experiments.DesignName{
	experiments.UniformShared, experiments.NonUniform, experiments.Private, experiments.Ideal,
	experiments.NuRAPID, experiments.NuRAPIDCR, experiments.NuRAPIDISC,
	experiments.PrivateUpdate, experiments.DNUCA,
}

// cmpsim changes how it simulates a design by the optional interfaces
// it implements, so each wrapper must implement exactly its design's.
func TestWrapperImplementsExactlyTheDesignsInterfaces(t *testing.T) {
	for _, d := range allDesigns {
		design := experiments.NewDesign(d)
		w, _ := wrapL2(design)
		if got, want := optionalIfaces(w), optionalIfaces(design); got != want {
			t.Errorf("%s: wrapper implements %05b, design %05b", d, got, want)
		}
		if w.Name() != design.Name() || w.Stats() != design.Stats() {
			t.Errorf("%s: wrapper does not forward Name/Stats", d)
		}
	}
}

// Every cell of mt-figs and mp-figs, replayed through the wrappers,
// gives the results the evaluation computes untraced.
func TestTracedReplayMatchesEvaluation(t *testing.T) {
	rc := experiments.RunConfig{WarmupInstr: 20_000, Instructions: 20_000, Seed: 42}
	zero := func() time.Duration { return 0 }
	for _, w := range workloads[:2] {
		sel, err := experiments.Select(w.exps)
		if err != nil {
			t.Fatal(err)
		}
		e := experiments.NewEval(rc)
		for _, c := range experiments.Plan(sel, e) {
			got, _ := replayCell(e, c.Key, zero)
			if want := evalResults(t, e, c.Key); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: traced results differ from the evaluation's", c.Key)
			}
		}
	}
}

// evalResults returns the evaluation's own results for a cell key.
func evalResults(t *testing.T, e *experiments.Eval, key string) any {
	parts := strings.SplitN(key, "/", 3)
	d := experiments.DesignName(parts[1])
	if parts[0] == "mt" {
		for _, p := range e.Profiles() {
			if p.Name == parts[2] {
				return e.MT(d, p)
			}
		}
	}
	for i, m := range e.Mixes() {
		if parts[0] == "mp" && m.Name() == parts[2] {
			return e.MP(d, i)
		}
	}
	t.Fatalf("no evaluation cell for %q", key)
	return nil
}

// BENCHMARK.json at the checkout root lists the workloads and metrics
// this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEndDefs}, {spec.PerLayer, perLayerDefs()}} {
		var got []metricDef
		for _, m := range c.listed {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("BENCHMARK.json lists %v\nprogram reports %v", got, c.defs)
		}
	}
}

// A traced pass on two workers renders what the untraced experiments
// path renders, and traces every cell once.
func TestTracePassRendersLikeTheProgram(t *testing.T) {
	rc := experiments.RunConfig{WarmupInstr: 5_000, Instructions: 5_000, Seed: 7}
	p, err := runTracePass("all", rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := experiments.Select("all")
	if err != nil {
		t.Fatal(err)
	}
	e := experiments.NewEval(rc)
	cells := experiments.Plan(sel, e)
	if f := experiments.ExecuteCells(cells, 2, false, nil); len(f) != 0 {
		t.Fatalf("untraced cells failed: %v", f)
	}
	var want strings.Builder
	for _, ex := range sel {
		if ex.Table != nil {
			want.WriteString(ex.Table(e).String() + "\n")
		} else {
			want.WriteString(ex.Text(e) + "\n")
		}
	}
	if p.failures != 0 || len(p.cells) != len(cells) {
		t.Fatalf("traced pass: %d failures, %d of %d cells traced", p.failures, len(p.cells), len(cells))
	}
	if string(p.output) != want.String() {
		t.Error("traced pass renders different output from the untraced evaluation")
	}
}
