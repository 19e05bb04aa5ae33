package outline_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

var updateIdentity = flag.Bool("update", false, "rewrite the detector byte-identity golden file")

// TestDetectorByteIdentityPin pins the exact images the outliner produces
// on a fixed ladder slice. The golden file was generated with the paper's
// suffix-tree detector, so the suffix array that replaced it — and any
// future change to the detection/selection machinery — is held to
// byte-for-byte identity, not just "tests still pass".
// Regenerate (deliberately) with `go test ./internal/outline -update`.
func TestDetectorByteIdentityPin(t *testing.T) {
	type pinCase struct {
		app  string
		cfg  core.Config
		name string
	}
	plShard := core.CTOLTBOPl(4)
	plShard.DetectShards = 2
	plShard.Rounds = 2
	plShard.DedupFunctions = true
	cases := []pinCase{
		{"Wechat", core.CTOLTBO(), "wechat-ltbo"},
		{"Wechat", plShard, "wechat-plopti4-shards2-rounds2-dedup"},
		{"Taobao", core.CTOLTBOPl(8), "taobao-plopti8"},
	}

	var sb strings.Builder
	for _, c := range cases {
		prof, ok := workload.AppByName(c.app, 0.05)
		if !ok {
			t.Fatalf("unknown app %q", c.app)
		}
		app, _, err := workload.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.BuildCtx(t.Context(), app, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data, err := res.Image.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(&sb, "%s %s\n", c.name, hex.EncodeToString(sum[:]))
	}

	golden := filepath.Join("testdata", "identity.golden")
	if *updateIdentity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if sb.String() != string(want) {
		t.Errorf("outlined images changed:\n got:\n%s want:\n%s", sb.String(), string(want))
	}
}
