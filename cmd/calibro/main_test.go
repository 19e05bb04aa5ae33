package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/dex"
	"repro/internal/oat"
	"repro/internal/obs"
	"repro/internal/workload"
)

func TestRunUnknownApp(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-app", "NotAnApp"}, &buf)
	if err == nil || !strings.Contains(err.Error(), `unknown app "NotAnApp"`) {
		t.Fatalf("err = %v, want unknown app", err)
	}
}

func TestRunUnknownConfig(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-app", "Taobao", "-scale", "0.05", "-config", "turbo"}, &buf)
	if err == nil || !strings.Contains(err.Error(), `unknown config "turbo"`) {
		t.Fatalf("err = %v, want unknown config", err)
	}
}

func TestRunBadInputFile(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-i", filepath.Join(t.TempDir(), "nope.dex")}, &buf)
	if err == nil {
		t.Fatal("missing input file did not error")
	}
}

// TestRunHappyPath builds a marshaled container through the full CLI flow
// and checks the report lines land on the provided writer.
func TestRunHappyPath(t *testing.T) {
	prof, ok := workload.AppByName("Taobao", 0.05)
	if !ok {
		t.Fatal("Taobao profile missing")
	}
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	data, err := dex.Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "app.dex")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "app.oat")
	var buf strings.Builder
	if err := run([]string{"-i", in, "-config", "cto", "-o", out}, &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	got := buf.String()
	for _, want := range []string{"app Taobao:", "config cto:", "wrote " + out} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Errorf("image file not written: %v", err)
	}
}

// TestRunSummaryUnits checks that the build summary line renders its
// wall clocks with the sub-second-aware usDur rule: a small build's
// stages read in milliseconds instead of collapsing to "0.0s".
func TestRunSummaryUnits(t *testing.T) {
	for _, c := range []struct {
		us   int64
		want string
	}{
		{0, "0.00ms"},
		{850, "0.85ms"},
		{45_120, "45.12ms"},
		{999_000, "999.00ms"},
		{1_000_000, "1.0s"},
		{61_500_000, "1m01.5s"},
	} {
		if got := usDur(c.us); got != c.want {
			t.Errorf("usDur(%d) = %q, want %q", c.us, got, c.want)
		}
	}

	var buf strings.Builder
	if err := run([]string{"-app", "Taobao", "-scale", "0.05", "-config", "cto"}, &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	line := regexp.MustCompile(`(?m)^config cto: .*$`).FindString(buf.String())
	durs := regexp.MustCompile(`(build|compile|outline|link|stage sum) ([^ ,;)]+)`).FindAllStringSubmatch(line, -1)
	if len(durs) != 5 {
		t.Fatalf("summary line has %d durations, want 5: %q", len(durs), line)
	}
	unit := regexp.MustCompile(`^(\d+\.\d\dms|\d+\.\ds|\d+m\d\d\.\ds)$`)
	for _, d := range durs {
		if !unit.MatchString(d[2]) || d[2] == "0.0s" {
			t.Errorf("%s renders as %q in %q", d[1], d[2], line)
		}
	}
}

// TestTelemetryQueueWaitHasNoTotal checks the -stats table: queue waits
// of overlapping tasks do not add up to a wall clock, so the queue-wait
// row shows only p50/p95/max while its task row keeps the total.
func TestTelemetryQueueWaitHasNoTotal(t *testing.T) {
	snap := &obs.Snapshot{
		Stages:    map[string]int64{"compile": 40_000},
		Tasks:     map[string]obs.TaskStats{"compile": {Count: 200, TotalUS: 70_000, P50US: 300, P95US: 900, MaxUS: 1_200}},
		QueueWait: map[string]obs.TaskStats{"compile": {Count: 200, TotalUS: 7_900_000, P50US: 39_000, P95US: 39_800, MaxUS: 39_900}},
	}
	var buf strings.Builder
	printTelemetry(&buf, snap)
	out := buf.String()
	task := regexp.MustCompile(`(?m)^compile +200 +(\S+) `).FindStringSubmatch(out)
	if task == nil || task[1] != "70.00ms" {
		t.Errorf("compile task row lost its total:\n%s", out)
	}
	wait := regexp.MustCompile(`(?m)^  queue wait +(.*)$`).FindStringSubmatch(out)
	if wait == nil {
		t.Fatalf("no queue wait row:\n%s", out)
	}
	if got, want := strings.Fields(wait[1]), []string{"39.00ms", "39.80ms", "39.90ms"}; !slices.Equal(got, want) {
		t.Errorf("queue wait cells = %q, want only p50/p95/max %q", got, want)
	}
	if strings.Contains(out, "7.9s") {
		t.Errorf("table shows the summed queue wait:\n%s", out)
	}
}

// TestRunDebloat drives the -debloat path end to end: build an image
// through the normal CLI flow, then debloat it rooted at the first
// activity and check the smaller image parses and reports removal.
func TestRunDebloat(t *testing.T) {
	prof, ok := workload.AppByName("Taobao", 0.05)
	if !ok {
		t.Fatal("Taobao profile missing")
	}
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	data, err := dex.Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "app.dex")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, "full.oat")
	var buf strings.Builder
	if err := run([]string{"-i", in, "-config", "ltbo", "-o", full}, &buf); err != nil {
		t.Fatalf("build: %v\noutput:\n%s", err, buf.String())
	}

	small := filepath.Join(dir, "small.oat")
	buf.Reset()
	if err := run([]string{"-debloat", full, "-roots", "0", "-o", small}, &buf); err != nil {
		t.Fatalf("debloat: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "debloat: text") || !strings.Contains(buf.String(), "removed:") {
		t.Errorf("debloat report missing:\n%s", buf.String())
	}
	fullData, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	smallData, err := os.ReadFile(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(smallData) > len(fullData) {
		t.Errorf("debloated image grew on disk: %d -> %d bytes", len(fullData), len(smallData))
	}
	if _, err := oat.Unmarshal(smallData); err != nil {
		t.Errorf("debloated image does not parse: %v", err)
	}

	// A malformed -roots entry is an error, not a silent default.
	if err := run([]string{"-debloat", full, "-roots", "zero"}, &strings.Builder{}); err == nil {
		t.Error("bad -roots entry did not error")
	}
}
