package server

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
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

// servedKeysDigest is the SHA-256 over the response bodies (cache stamp
// stripped) of every served key in servedKeys order, each prefixed with
// its key, from a server under the benchmark's serving settings.
// testdata/served_keys.sha256 holds one SHA-256 per body, so a moved
// digest can name the keys that moved.
const servedKeysDigest = "d985d18f7a1ff23d4d549c8935cc32829c6793cf373b2cf347e71d881147a230"

var updateServedKeys = flag.Bool("update-served-keys", false,
	"rewrite testdata/served_keys.sha256 from this run")

// servedKey is one request of the benchmark's serve-cold key space.
type servedKey struct {
	inst  string
	query string
}

func (k servedKey) String() string { return k.inst + "?" + k.query }

// servedKeys is the serve-cold key space: the tiny dataset × P ∈ {2,3,4}
// × rfactor ∈ {2,3} × sync/async, less the four CG_N4_K1 keys at P = 2,
// whose portfolio runs take seconds each (176 keys).
func servedKeys() []servedKey {
	var keys []servedKey
	for _, inst := range workloads.Tiny() {
		for _, p := range []int{2, 3, 4} {
			if inst.Name == "CG_N4_K1" && p == 2 {
				continue
			}
			for _, rf := range []int{2, 3} {
				for _, model := range []string{"sync", "async"} {
					keys = append(keys, servedKey{inst.Name, fmt.Sprintf("p=%d&rfactor=%d&model=%s", p, rf, model)})
				}
			}
		}
	}
	return keys
}

// serveAll posts every key in order through one fresh server under the
// benchmark's serving settings and returns the stamp-stripped bodies by
// key.
func serveAll(t *testing.T, keys []servedKey) map[servedKey][]byte {
	t.Helper()
	srv := mustNew(t, Config{ILPNodeLimit: 500, MaxModelRows: 3000})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bodies := make(map[servedKey][]byte, len(keys))
	for _, k := range keys {
		resp, body := post(t, ts, k.query, dagBody(t, k.inst))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", k, resp.StatusCode, body)
		}
		bodies[k] = stripCache(t, body)
	}
	return bodies
}

// TestServedKeysGolden pins the bytes served for the whole serve-cold
// key space, through two fresh servers: one in key order, one in a
// fixed shuffled order, so neither the schedule cache nor the partition
// memo can make an answer depend on the requests before it. On a
// mismatch it names every key whose body moved.
func TestServedKeysGolden(t *testing.T) {
	keys := servedKeys()
	if len(keys) != 176 {
		t.Fatalf("%d served keys, want 176", len(keys))
	}
	shuffled := slices.Clone(keys)
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	pinned := readServedKeySums(t)
	for _, run := range []struct {
		name  string
		order []servedKey
	}{{"in order", keys}, {"shuffled", shuffled}} {
		bodies := serveAll(t, run.order)
		h := sha256.New()
		var sums strings.Builder
		var moved []string
		for _, k := range keys {
			fmt.Fprintf(h, "%s\n%s\n", k, bodies[k])
			sum := sha256.Sum256(bodies[k])
			fmt.Fprintf(&sums, "%x  %s\n", sum, k)
			if pinned[k.String()] != hex.EncodeToString(sum[:]) {
				moved = append(moved, k.String())
			}
		}
		if *updateServedKeys {
			if err := os.WriteFile(servedKeySumsPath, []byte(sums.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != servedKeysDigest {
			t.Errorf("%s: served-keys digest %s, want %s; %d bodies moved: %s",
				run.name, got, servedKeysDigest, len(moved), strings.Join(moved, " "))
		}
	}
}

const servedKeySumsPath = "testdata/served_keys.sha256"

// readServedKeySums reads the pinned per-key body SHA-256s, keyed by
// servedKey.String().
func readServedKeySums(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(servedKeySumsPath)
	if err != nil && !*updateServedKeys {
		t.Fatal(err)
	}
	sums := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if sum, key, ok := strings.Cut(line, "  "); ok {
			sums[key] = sum
		}
	}
	return sums
}
