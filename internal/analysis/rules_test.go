package analysis_test

import (
	"testing"

	"repro/internal/a64"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/oat"
)

// TestRuleEngineParity pins the engine's compatibility contract: under the
// default spec (the legacy rule set) RunRules produces findings identical
// to the classic Analyze path, on clean and on corrupt images alike.
func TestRuleEngineParity(t *testing.T) {
	clean := buildApp(t, core.CTOLTBO())
	corrupt := buildApp(t, core.CTOLTBO())
	corrupt.Text[len(corrupt.Text)/2] = 0xFFFFFFFF
	corrupt.Text[len(corrupt.Text)/3] = 0xFFFFFFFF
	for _, tc := range []struct {
		name string
		img  *oat.Image
	}{{"clean", clean}, {"corrupt", corrupt}} {
		t.Run(tc.name, func(t *testing.T) {
			legacy := analyze(t, tc.img, 3)
			rep, err := analysis.RunRules(t.Context(), tc.img, nil, nil, analysis.RootSet{}, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Findings) != len(legacy.Findings) {
				t.Fatalf("engine found %d, legacy found %d", len(rep.Findings), len(legacy.Findings))
			}
			for i := range legacy.Findings {
				if rep.Findings[i] != legacy.Findings[i] {
					t.Errorf("finding %d: engine %v, legacy %v", i, rep.Findings[i], legacy.Findings[i])
				}
			}
			if len(rep.Methods) != len(legacy.Methods) {
				t.Errorf("engine report covers %d methods, legacy %d", len(rep.Methods), len(legacy.Methods))
			}
		})
	}
}

// TestRuleSpecParse exercises the -rules grammar: set operations, severity
// regrades, and the typo-is-an-error contract.
func TestRuleSpecParse(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
		on      []string
		off     []string
	}{
		{spec: "", on: []string{analysis.RuleRecord, analysis.RuleDecode}, off: []string{analysis.RuleUnreachable}},
		{spec: "all", on: []string{analysis.RuleRecord, analysis.RuleUnreachable, analysis.RuleOutlineCycle}},
		{spec: "interproc", on: []string{analysis.RuleRecord, analysis.RuleUnreachable, analysis.RuleDeadOutline}},
		{spec: "all,legacy", on: []string{analysis.RuleRecord}, off: []string{analysis.RuleUnreachable}},
		{spec: "-dead-code", off: []string{analysis.RuleDeadCode}, on: []string{analysis.RuleRecord}},
		{spec: "unreachable-method", on: []string{analysis.RuleUnreachable}, off: []string{analysis.RuleDeadOutline}},
		{spec: "unreachable-method=warn", on: []string{analysis.RuleUnreachable}},
		{spec: "bogus-rule", wantErr: true},
		{spec: "decode=silly", wantErr: true},
		{spec: "-bogus-rule", wantErr: true},
		{spec: "bogus-rule=warn", wantErr: true},
	}
	for _, tc := range cases {
		s, err := analysis.ParseRuleSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: parse succeeded, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		for _, name := range tc.on {
			if !s.Enabled(name) {
				t.Errorf("%q: rule %s should be enabled", tc.spec, name)
			}
		}
		for _, name := range tc.off {
			if s.Enabled(name) {
				t.Errorf("%q: rule %s should be disabled", tc.spec, name)
			}
		}
	}

	// The canonical rendering survives a round trip.
	s, err := analysis.ParseRuleSpec("interproc,unreachable-method=warn,-dead-code")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := analysis.ParseRuleSpec(s.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", s.String(), err)
	}
	if s2.String() != s.String() {
		t.Errorf("spec does not round-trip: %q -> %q", s.String(), s2.String())
	}
}

// TestInterprocRules checks the reachability-backed rules agree with a
// direct call-graph query, and that severity regrades apply.
func TestInterprocRules(t *testing.T) {
	_, man, img := buildAppFull(t, core.CTOLTBO())
	roots := analysis.RootSet{Methods: man.Drivers}
	cg, _ := analysis.BuildCallGraphCtx(t.Context(), img, 0)
	reach := cg.Reachable(roots)
	wantDead := map[dex.MethodID]bool{}
	for _, id := range reach.DeadMethods(cg) {
		wantDead[id] = true
	}

	spec, err := analysis.ParseRuleSpec("interproc")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.RunRules(t.Context(), img, nil, spec, roots, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotDead := map[dex.MethodID]bool{}
	deadOutlines := 0
	for _, f := range rep.Findings {
		switch f.Rule {
		case analysis.RuleUnreachable:
			gotDead[f.Method] = true
		case analysis.RuleDeadOutline:
			deadOutlines++
		case analysis.RuleOutlineCycle:
			t.Errorf("clean build flagged an outline cycle: %s", f)
		}
	}
	if len(gotDead) != len(wantDead) {
		t.Errorf("rule reported %d unreachable methods, reachability says %d", len(gotDead), len(wantDead))
	}
	for id := range gotDead {
		if !wantDead[id] {
			t.Errorf("rule flagged m%d, reachability says live", id)
		}
	}
	if want := len(reach.DeadBlobs()); deadOutlines != want {
		t.Errorf("rule reported %d dead outlined functions, reachability says %d", deadOutlines, want)
	}

	// Severity regrade: the same findings, re-graded to errors.
	if len(wantDead) > 0 {
		spec, err := analysis.ParseRuleSpec("unreachable-method=error")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := analysis.RunRules(t.Context(), img, nil, spec, roots, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for _, f := range rep.Findings {
			if f.Rule == analysis.RuleUnreachable {
				seen++
				if f.Severity != analysis.SevError {
					t.Errorf("regraded finding kept severity %s: %s", f.Severity, f)
				}
			}
		}
		if seen != len(wantDead) {
			t.Errorf("regraded run reported %d unreachable methods, want %d", seen, len(wantDead))
		}
	}

	// Severity regrade on a legacy rule, driven through the engine.
	stomped := buildApp(t, core.CTOLTBO())
	stomped.Text[len(stomped.Text)/2] = 0xFFFFFFFF
	dspec, err := analysis.ParseRuleSpec("decode=info")
	if err != nil {
		t.Fatal(err)
	}
	drep, err := analysis.RunRules(t.Context(), stomped, nil, dspec, analysis.RootSet{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	decodes := 0
	for _, f := range drep.Findings {
		if f.Rule == analysis.RuleDecode {
			decodes++
			if f.Severity != analysis.SevInfo {
				t.Errorf("decode finding not regraded to info: %s", f)
			}
		}
	}
	if decodes == 0 {
		t.Error("stomped word produced no decode finding")
	}
}

// TestOutlineCycleRule crafts the pathology the rule exists for: an
// outlined function whose body calls itself. A blob is supposed to be
// straight-line, so a self-call is a call-graph cycle through the blob —
// an error, because recursive re-entry runs with a clobbered return
// address.
func TestOutlineCycleRule(t *testing.T) {
	img := buildApp(t, core.CTOLTBO())
	if len(img.Outlined) == 0 {
		t.Fatal("build produced no outlined functions")
	}
	b := img.Outlined[0]
	img.Text[b.Offset/a64.WordSize] = a64.MustEncode(a64.Inst{Op: a64.OpBl, Imm: 0}) // bl to its own head

	spec, err := analysis.ParseRuleSpec("recursive-outline-cycle")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.RunRules(t.Context(), img, nil, spec, analysis.RootSet{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cycle *analysis.Finding
	for i, f := range rep.Findings {
		if f.Rule == analysis.RuleOutlineCycle {
			cycle = &rep.Findings[i]
		}
	}
	if cycle == nil {
		t.Fatal("self-calling outlined function produced no cycle finding")
	}
	if cycle.Severity != analysis.SevError {
		t.Errorf("cycle finding severity %s, want error", cycle.Severity)
	}
	if cycle.Off != b.Offset {
		t.Errorf("cycle finding at +%#x, blob is at +%#x", cycle.Off, b.Offset)
	}
}
