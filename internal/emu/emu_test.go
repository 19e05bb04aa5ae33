package emu

import (
	"reflect"
	"testing"

	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/hgraph"
	"repro/internal/oat"
	"repro/internal/workload"
)

// buildImage compiles and links an app.
func buildImage(t *testing.T, app *dex.App, opts codegen.Options) *oat.Image {
	t.Helper()
	methods, err := codegen.CompileCtx(t.Context(), app, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	img, err := oat.Link(methods, nil)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return img
}

// mkApp wraps methods into a validated app.
func mkApp(t *testing.T, methods ...*dex.Method) *dex.App {
	t.Helper()
	app := &dex.App{Name: "t"}
	cls := &dex.Class{Name: "LTest"}
	app.Files = []*dex.File{{Name: "d", Classes: []*dex.Class{cls}}}
	for _, m := range methods {
		app.AddMethod(cls, m)
	}
	if err := app.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return app
}

// diffRun runs the same entry in the interpreter and the emulator and
// requires identical observables.
func diffRun(t *testing.T, app *dex.App, img *oat.Image, entry dex.MethodID, args []int64) (hgraph.Result, Result) {
	t.Helper()
	ip := &hgraph.Interp{App: app, MaxDepth: 10_000}
	want, err := ip.Run(entry, args)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	m := New(img)
	got, err := m.Run(entry, args)
	if err != nil {
		t.Fatalf("emu: %v", err)
	}
	if want.Ret != got.Ret || want.Exc != got.Exc || !reflect.DeepEqual(want.Log, got.Log) {
		t.Fatalf("emulator diverges from interpreter (entry m%d args %v)\ninterp: ret=%d exc=%v log=%v\nemu:    ret=%d exc=%v log=%v",
			entry, args, want.Ret, want.Exc, want.Log, got.Ret, got.Exc, got.Log)
	}
	return want, got
}

func TestEmuArithmeticLoop(t *testing.T) {
	m := &dex.Method{Class: "LT", Name: "sum", NumRegs: 4, NumIns: 1, Code: []dex.Insn{
		{Op: dex.OpConst, A: 0, Lit: 0},
		{Op: dex.OpMove, A: 1, B: 3},
		{Op: dex.OpIfEqz, A: 1, Target: 6},
		{Op: dex.OpAdd, A: 0, B: 0, C: 1},
		{Op: dex.OpAddLit, A: 1, B: 1, Lit: -1},
		{Op: dex.OpGoto, Target: 2},
		{Op: dex.OpReturn, A: 0},
	}}
	app := mkApp(t, m)
	for _, cto := range []bool{false, true} {
		img := buildImage(t, app, codegen.Options{CTO: cto, Optimize: true})
		want, got := diffRun(t, app, img, 0, []int64{10})
		if want.Ret != 55 {
			t.Fatalf("sum(10) = %d", want.Ret)
		}
		if got.Cycles <= got.Insts {
			t.Errorf("cost model inert: cycles=%d insts=%d", got.Cycles, got.Insts)
		}
	}
}

func TestEmuCallsObjectsArrays(t *testing.T) {
	callee := &dex.Method{Class: "LT", Name: "addmul", NumRegs: 4, NumIns: 2, Code: []dex.Insn{
		{Op: dex.OpAdd, A: 0, B: 2, C: 3},
		{Op: dex.OpAdd, A: 0, B: 0, C: 0},
		{Op: dex.OpReturn, A: 0},
	}}
	main := &dex.Method{Class: "LT", Name: "main", NumRegs: 8, NumIns: 2, Code: []dex.Insn{
		{Op: dex.OpNewInstance, A: 0, Lit: 4},
		{Op: dex.OpConst, A: 1, Lit: 11},
		{Op: dex.OpIPut, A: 1, B: 0, Lit: 3},
		{Op: dex.OpIGet, A: 2, B: 0, Lit: 3},
		{Op: dex.OpConst, A: 3, Lit: 6},
		{Op: dex.OpNewArray, A: 4, B: 3},
		{Op: dex.OpConst, A: 5, Lit: 2},
		{Op: dex.OpAPut, A: 2, B: 4, C: 5},
		{Op: dex.OpAGet, A: 1, B: 4, C: 5},
		{Op: dex.OpArrayLen, A: 3, B: 4},
		{Op: dex.OpInvoke, A: 0, Method: 0, B: 1, C: 3},
		{Op: dex.OpInvokeNative, A: 0, Native: dex.NativeLogValue, B: 0},
		{Op: dex.OpReturn, A: 0},
	}}
	app := mkApp(t, callee, main)
	for _, cto := range []bool{false, true} {
		img := buildImage(t, app, codegen.Options{CTO: cto, Optimize: true})
		want, got := diffRun(t, app, img, 1, []int64{0, 0})
		if want.Ret != 34 { // (11+6)*2
			t.Fatalf("ret = %d, want 34", want.Ret)
		}
		if got.Allocs != 2 {
			t.Errorf("allocs = %d", got.Allocs)
		}
	}
}

func TestEmuExceptions(t *testing.T) {
	cases := []struct {
		name string
		code []dex.Insn
		want hgraph.Exception
	}{
		{"npe", []dex.Insn{
			{Op: dex.OpConst, A: 0, Lit: 0},
			{Op: dex.OpIGet, A: 1, B: 0, Lit: 2},
			{Op: dex.OpReturn, A: 1},
		}, hgraph.ExcNullPointer},
		{"bounds", []dex.Insn{
			{Op: dex.OpConst, A: 0, Lit: 4},
			{Op: dex.OpNewArray, A: 1, B: 0},
			{Op: dex.OpConst, A: 2, Lit: 9},
			{Op: dex.OpAGet, A: 3, B: 1, C: 2},
			{Op: dex.OpReturn, A: 3},
		}, hgraph.ExcArrayBounds},
		{"negative index", []dex.Insn{
			{Op: dex.OpConst, A: 0, Lit: 4},
			{Op: dex.OpNewArray, A: 1, B: 0},
			{Op: dex.OpConst, A: 2, Lit: -3},
			{Op: dex.OpAPut, A: 0, B: 1, C: 2},
			{Op: dex.OpReturnVoid},
		}, hgraph.ExcArrayBounds},
		{"negative length", []dex.Insn{
			{Op: dex.OpConst, A: 0, Lit: -1},
			{Op: dex.OpNewArray, A: 1, B: 0},
			{Op: dex.OpReturnVoid},
		}, hgraph.ExcArrayBounds},
		{"explicit throw", []dex.Insn{
			{Op: dex.OpConst, A: 0, Lit: 0},
			{Op: dex.OpInvokeNative, A: 0, Native: dex.NativeThrowNullPointer},
			{Op: dex.OpReturnVoid},
		}, hgraph.ExcNullPointer},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &dex.Method{Class: "LT", Name: "m", NumRegs: 4, NumIns: 0, Code: tc.code}
			app := mkApp(t, m)
			for _, cto := range []bool{false, true} {
				img := buildImage(t, app, codegen.Options{CTO: cto, Optimize: true})
				want, _ := diffRun(t, app, img, 0, nil)
				if want.Exc != tc.want {
					t.Fatalf("exc = %v, want %v", want.Exc, tc.want)
				}
			}
		})
	}
}

func TestEmuStackOverflow(t *testing.T) {
	// Unbounded recursion must be caught by the Figure 4c stack check in
	// the emulator and by the frame-depth limit in the interpreter; both
	// report a stack overflow.
	rec := &dex.Method{Class: "LT", Name: "rec", NumRegs: 3, NumIns: 2, Code: []dex.Insn{
		{Op: dex.OpInvoke, A: 0, Method: 0, B: 1, C: 2},
		{Op: dex.OpReturn, A: 0},
	}}
	app := mkApp(t, rec)
	for _, cto := range []bool{false, true} {
		img := buildImage(t, app, codegen.Options{CTO: cto, Optimize: true})
		m := New(img)
		got, err := m.Run(0, []int64{1, 2})
		if err != nil {
			t.Fatalf("emu: %v", err)
		}
		if got.Exc != hgraph.ExcStackOverflow {
			t.Fatalf("cto=%v: exc = %v, want stack overflow", cto, got.Exc)
		}
	}
}

func TestEmuJNIStub(t *testing.T) {
	jni := &dex.Method{Class: "LT", Name: "jni", Native: true, NumRegs: 2, NumIns: 2}
	main := &dex.Method{Class: "LT", Name: "main", NumRegs: 3, NumIns: 1, Code: []dex.Insn{
		{Op: dex.OpInvoke, A: 0, Method: 0, B: 2, C: 2},
		{Op: dex.OpReturn, A: 0},
	}}
	app := mkApp(t, jni, main)
	img := buildImage(t, app, codegen.Options{CTO: true, Optimize: true})
	_, got := diffRun(t, app, img, 1, []int64{123})
	if got.Ret != 123 {
		t.Fatalf("JNI stub returned %d", got.Ret)
	}
}

func TestEmuPackedSwitch(t *testing.T) {
	m := &dex.Method{Class: "LT", Name: "sw", NumRegs: 3, NumIns: 1, Code: []dex.Insn{
		{Op: dex.OpPackedSwitch, A: 2, Targets: []int32{3, 5, 7}},
		{Op: dex.OpConst, A: 0, Lit: -1},
		{Op: dex.OpReturn, A: 0},
		{Op: dex.OpConst, A: 0, Lit: 10},
		{Op: dex.OpReturn, A: 0},
		{Op: dex.OpConst, A: 0, Lit: 20},
		{Op: dex.OpReturn, A: 0},
		{Op: dex.OpConst, A: 0, Lit: 30},
		{Op: dex.OpReturn, A: 0},
	}}
	app := mkApp(t, m)
	// Switches lower to jump tables through an indirect branch; run without
	// IR optimization too so the table shape survives as written.
	for _, opt := range []bool{false, true} {
		img := buildImage(t, app, codegen.Options{Optimize: opt})
		for _, arg := range []int64{0, 1, 2, 3, -1, 99} {
			diffRun(t, app, img, 0, []int64{arg})
		}
	}
}

func TestEmuConstPool(t *testing.T) {
	m := &dex.Method{Class: "LT", Name: "pool", NumRegs: 2, NumIns: 0,
		Pool: []uint64{0xDEADBEEF_12345678, 0x11111111_22222222, 0xD503201F_D503201F},
		Code: []dex.Insn{
			{Op: dex.OpConstPool, A: 0, Lit: 0},
			{Op: dex.OpConstPool, A: 1, Lit: 2}, // value decodes as two NOPs: embedded data trap
			{Op: dex.OpXor, A: 0, B: 0, C: 1},
			{Op: dex.OpInvokeNative, A: 0, Native: dex.NativeLogValue, B: 0},
			{Op: dex.OpReturn, A: 0},
		}}
	app := mkApp(t, m)
	img := buildImage(t, app, codegen.Options{CTO: true, Optimize: true})
	want, _ := diffRun(t, app, img, 0, nil)
	if want.Ret == 0 {
		t.Fatal("pool constants lost")
	}
}

// TestEmuDifferentialRandomApps is the pipeline-wide differential test:
// random workload apps, both CTO settings, several argument vectors.
func TestEmuDifferentialRandomApps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		prof := workload.Profile{
			Name: "rnd", Seed: seed, Methods: 40,
			NativeFrac: 0.1, SwitchFrac: 0.15, HotFrac: 0.05,
			HotLoopIters: 40, WarmLoopIters: 3,
		}
		app, man, err := workload.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, cto := range []bool{false, true} {
			img := buildImage(t, app, codegen.Options{CTO: cto, Optimize: true})
			for _, args := range [][]int64{{0, 0}, {5, 3}, {255, 7}, {-9, 9}} {
				for _, entry := range man.Drivers {
					diffRun(t, app, img, entry, args)
				}
			}
		}
	}
}

func TestEmuMeasurements(t *testing.T) {
	prof := workload.Profile{Name: "meas", Seed: 3, Methods: 60, HotFrac: 0.05,
		HotLoopIters: 100}
	app, man, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, app, codegen.Options{CTO: true, Optimize: true})
	m := New(img)
	res, err := m.Run(man.Drivers[0], []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts == 0 || res.Cycles < res.Insts || res.Calls == 0 || res.Allocs == 0 {
		t.Errorf("implausible measurements: %+v", res)
	}
	if res.CodePages == 0 || res.DataPages == 0 {
		t.Errorf("page tracking inert: %+v", res)
	}
	if res.ICacheMisses == 0 {
		t.Errorf("icache model inert")
	}
	// Determinism: same run, same numbers.
	res2, err := m.Run(man.Drivers[0], []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Errorf("runs are not deterministic:\n%+v\n%+v", res, res2)
	}
}

func TestEmuStepBudget(t *testing.T) {
	spin := &dex.Method{Class: "LT", Name: "spin", NumRegs: 1, NumIns: 0, Code: []dex.Insn{
		{Op: dex.OpGoto, Target: 0},
	}}
	app := mkApp(t, spin)
	img := buildImage(t, app, codegen.Options{})
	m := New(img)
	m.MaxInsts = 5000
	res, err := m.Run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exc != hgraph.ExcStepLimit {
		t.Fatalf("exc = %v, want step limit", res.Exc)
	}
}

func TestEmuBadEntry(t *testing.T) {
	app := mkApp(t, &dex.Method{Class: "LT", Name: "m", NumRegs: 1, NumIns: 0,
		Code: []dex.Insn{{Op: dex.OpReturnVoid}}})
	img := buildImage(t, app, codegen.Options{})
	if _, err := New(img).Run(55, nil); err == nil {
		t.Fatal("bad entry accepted")
	}
}
