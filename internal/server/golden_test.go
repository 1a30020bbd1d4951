package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"mbsp/internal/workloads"
)

// servingGoldenDigest is the SHA-256 over every tiny-dataset instance's
// response body (cache stamp stripped) at p=4, rfactor=3, sync then
// async, each prefixed with its key, from a server under the benchmark's
// serving settings.
const servingGoldenDigest = "cc91053990d5207433fdcb3a9d94e5421263962b4ec131fde067c5532d143558"

// TestServingResponsesGolden pins the bytes a server deploying the
// benchmark's serving settings (ILPNodeLimit 500, MaxModelRows 3000)
// answers for the 30 tiny-dataset keys at P = 4, rfactor 3. Its winners
// include the ilp and dnc-ilp candidates, whose bytes depend on every
// ILP option the portfolio passes through; a change that moves this
// digest changed a served schedule or certificate.
func TestServingResponsesGolden(t *testing.T) {
	srv := mustNew(t, Config{ILPNodeLimit: 500, MaxModelRows: 3000})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	h := sha256.New()
	for _, inst := range workloads.Tiny() {
		for _, model := range []string{"sync", "async"} {
			query := "p=4&rfactor=3&model=" + model
			resp, body := post(t, ts, query, dagBody(t, inst.Name))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: %d %s", inst.Name, query, resp.StatusCode, body)
			}
			r := decode(t, body)
			t.Logf("%s/%s: winner %s cost %g", inst.Name, model, r.Winner, r.Cost)
			fmt.Fprintf(h, "%s?%s\n%s\n", inst.Name, query, stripCache(t, body))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != servingGoldenDigest {
		t.Fatalf("serving golden digest %s, want %s", got, servingGoldenDigest)
	}
}
