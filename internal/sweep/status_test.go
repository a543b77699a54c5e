package sweep

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/ckpt"
)

// TestStatusAutoscaleShape pins the /v1/status wire shape now that the
// autoscale hint block is gone: exactly "coordinator", plus "ckpt" when
// a checkpoint store is attached. Key-set equality (not subset) makes
// any added, renamed or removed member a test failure — the shape is an
// API — and the coordinator block must track the lease state machine.
func TestStatusAutoscaleShape(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store *ckpt.Store
		want  []string
	}{
		{"no store", nil, []string{"coordinator"}},
		{"with store", ckpt.NewMemory(), []string{"ckpt", "coordinator"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := NewCoordinator(testConfig(), nil, nil)
			ts := httptest.NewServer(NewServer(coord, tc.store, nil, nil).Handler())
			defer ts.Close()

			fetch := func() map[string]json.RawMessage {
				t.Helper()
				resp, err := http.Get(ts.URL + "/v1/status")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var top map[string]json.RawMessage
				if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
					t.Fatal(err)
				}
				return top
			}

			top := fetch()
			got := make([]string, 0, len(top))
			for k := range top {
				got = append(got, k)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("/v1/status keys = %v, want %v (the shape is an API)", got, tc.want)
			}

			// Drive one cell through grant → completion and watch the
			// coordinator block move.
			t0 := time.Unix(1000, 0)
			lease, _ := coord.Claim("w", t0)
			if lease == nil {
				t.Fatal("no lease")
			}
			if err := coord.Complete(lease.ID, recordsFor(lease.Cell), t0.Add(2*time.Second)); err != nil {
				t.Fatal(err)
			}
			var st CoordStats
			if err := json.Unmarshal(fetch()["coordinator"], &st); err != nil {
				t.Fatal(err)
			}
			if st.Cells != len(testConfig().Cells()) || st.Done != 1 || st.Claims != 1 || st.Completions != 1 {
				t.Fatalf("after one completion: %+v", st)
			}
		})
	}
}

// TestHTTPEpochGate pins the wire half of the epoch protocol: lease
// verbs stamped with a wrong epoch answer 410 before the lease is even
// looked up, legacy epoch-0 messages pass, and /v1/config + claim
// responses carry the current epoch.
func TestHTTPEpochGate(t *testing.T) {
	coord := NewCoordinator(testConfig(), nil, nil)
	ts := httptest.NewServer(NewServer(coord, nil, nil, nil).Handler())
	defer ts.Close()
	cl := NewClient(ts.URL, nil)

	cfg, err := cl.FetchConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Epoch != 1 {
		t.Fatalf("config epoch = %d, want 1", cfg.Epoch)
	}

	lease, done, err := cl.Claim("w")
	if err != nil || done || lease == nil {
		t.Fatalf("claim: %v %v %v", lease, done, err)
	}

	// Correct epoch: accepted.
	if err := cl.Heartbeat(lease.ID); err != nil {
		t.Fatalf("heartbeat at current epoch: %v", err)
	}
	// Stale epoch: rejected with the typed error, and counted.
	cl.epoch.Store(99)
	if err := cl.Heartbeat(lease.ID); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("heartbeat at epoch 99: err = %v, want ErrStaleEpoch", err)
	}
	if coord.Stats().EpochDrops == 0 {
		t.Fatal("epoch drop not counted")
	}
	// Legacy epoch 0: passes the gate.
	cl.epoch.Store(0)
	if err := cl.Heartbeat(lease.ID); err != nil {
		t.Fatalf("legacy heartbeat: %v", err)
	}
}
