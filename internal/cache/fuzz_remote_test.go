package cache_test

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/workload"
)

// cannedTransport makes the Remote client talk to an in-process script
// instead of a socket: every request gets the fuzzer's chosen status,
// protocol header, and body. No TCP, so the fuzz loop runs at memory
// speed.
type cannedTransport struct {
	status int
	proto  string
	body   []byte
}

func (c *cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := http.Header{}
	if c.proto != "" {
		h.Set(cache.RemoteProtoHeader, c.proto)
	}
	return &http.Response{
		StatusCode: c.status,
		Header:     h,
		Body:       io.NopCloser(bytes.NewReader(c.body)),
		Request:    req,
	}, nil
}

// FuzzRemoteFrame fuzzes the client half of the wire codec: whatever
// status/version/body combination a server (or a middlebox, or a
// corrupted disk behind a server) produces, Get must neither panic nor
// return unvalidated bytes. ok implies the blob opens as a genuine CCE1
// frame — the degrade-to-miss contract at the byte level.
func FuzzRemoteFrame(f *testing.F) {
	// Seeds: real compiled-method frames, their flipped variants, and the
	// protocol edge cases.
	app, _, err := workload.Generate(workload.Profile{
		Name: "fuzz", Seed: 23, Methods: 12,
		NativeFrac: 0.1, SwitchFrac: 0.1,
	})
	if err != nil {
		f.Fatal(err)
	}
	methods, err := codegen.CompileCtx(f.Context(), app, codegen.Options{CTO: true, Optimize: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, cm := range methods[:4] {
		f.Add(200, cache.RemoteProtoVersion, cache.Seal(codegen.EncodeCachedMethod(cm)))
	}
	seed := cache.Seal(codegen.EncodeCachedMethod(methods[0]))
	flip := func(i int) []byte {
		b := append([]byte(nil), seed...)
		b[i%len(b)] ^= 0x20
		return b
	}
	f.Add(200, cache.RemoteProtoVersion, flip(len(seed)/2)) // payload damage
	f.Add(200, cache.RemoteProtoVersion, flip(len(seed)-1)) // checksum damage
	f.Add(200, cache.RemoteProtoVersion, flip(4))           // version damage
	f.Add(200, cache.RemoteProtoVersion, seed[:len(seed)-5])
	f.Add(200, "999", seed) // version skew with a valid body
	f.Add(404, cache.RemoteProtoVersion, []byte{})
	f.Add(500, cache.RemoteProtoVersion, []byte("internal error"))
	f.Add(200, cache.RemoteProtoVersion, []byte{})
	f.Add(301, "", seed)

	f.Fuzz(func(t *testing.T, status int, proto string, body []byte) {
		if status < 100 || status > 599 {
			return // http.Client rejects these before the codec runs
		}
		r := cache.NewRemote(cache.RemoteConfig{
			URL:    "http://fuzzed.invalid",
			Client: &http.Client{Transport: &cannedTransport{status: status, proto: proto, body: body}},
		})
		k := cache.Key{}
		sealed, ok := r.Get(k)
		if !ok {
			return // degrade to miss: always legal
		}
		// The one illegal outcome: claiming a hit on bytes that do not
		// validate, or on a response that should have been distrusted.
		if status != 200 || proto != cache.RemoteProtoVersion {
			t.Fatalf("Get ok on status=%d proto=%q", status, proto)
		}
		if _, valid := cache.Open(sealed); !valid {
			t.Fatal("Get returned a blob that does not validate")
		}
	})
}
