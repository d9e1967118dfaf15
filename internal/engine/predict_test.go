package engine

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wirelesshart/internal/spec"
)

// updatePredict regenerates testdata/predict.golden:
// UPDATE_GOLDEN=1 go test ./internal/engine -run TestPredictResponses
var updatePredict = os.Getenv("UPDATE_GOLDEN") != ""

// TestPredictResponses pins /v1/predict's status and body bytes, answers
// and error texts alike, for ranked candidate sets and for each way a
// request fails, in the order the checks meet them. The golden was
// recorded when every candidate evaluated the scenario on its own
// (commit fd5df6a).
func TestPredictResponses(t *testing.T) {
	typical, err := json.Marshal(spec.TypicalSpec())
	if err != nil {
		t.Fatal(err)
	}
	ghost := spec.TypicalSpec()
	ghost.Links = append(ghost.Links, spec.Link{A: "n1", B: "ghost"})
	badScenario, err := json.Marshal(ghost)
	if err != nil {
		t.Fatal(err)
	}
	badBER := spec.TypicalSpec()
	badBER.Links[2].BER = new(float64)
	*badBER.Links[2].BER = -1
	unkeyable, err := json.Marshal(badBER)
	if err != nil {
		t.Fatal(err)
	}
	req := func(scenario []byte, cands string) string {
		return fmt.Sprintf(`{"scenario": %s, "candidates": [%s]}`, scenario, cands)
	}
	const advisor = `{"via": "n4", "ebN0": 7}, {"via": "n1", "ebN0": 6}, {"via": "n9", "ebN0": 12}, {"via": "n3", "ebN0": 4}`
	cases := []struct{ name, body string }{
		{"advisor candidates", req(typical, advisor)},
		{"one candidate", req(typical, `{"via": "n10", "ebN0": 9}`)},
		{"multi-hop peer paths", req(typical, `{"via": "n2", "ebN0s": [7, 5]}, {"via": "n5", "ebN0s": [12, 12, 12]}`)},
		{"tied candidates keep their order", req(typical, `{"via": "n1", "ebN0": 6}, {"via": "n1", "ebN0": 6}`)},
		{"bad scenario, first candidate without via", req(badScenario, `{"ebN0": 7}, {"via": "n1", "ebN0": 6}`)},
		{"bad scenario, first candidate without snr", req(badScenario, `{"via": "n4"}`)},
		{"bad scenario", req(badScenario, advisor)},
		{"scenario that does not key", req(unkeyable, advisor)},
		{"second candidate without via", req(typical, `{"via": "n4", "ebN0": 7}, {"ebN0": 6}`)},
		{"second candidate without snr", req(typical, `{"via": "n4", "ebN0": 7}, {"via": "n1", "ebN0s": []}`)},
		{"gateway via", req(typical, `{"via": "n4", "ebN0": 7}, {"via": "G", "ebN0": 7}`)},
		{"unknown via", req(typical, `{"via": "nope", "ebN0": 7}`)},
		{"peer path beyond the frame", req(typical, `{"via": "n4", "ebN0s": [`+strings.Repeat("7, ", 40)+`7]}`)},
		{"invalid peer snr", req(typical, `{"via": "n4", "ebN0": 7}, {"via": "n1", "ebN0s": [6, -2]}`)},
		{"conflicting snr fields", req(typical, `{"via": "n4", "ebN0": 7, "ebN0s": [7]}`)},
		{"missing candidates", fmt.Sprintf(`{"scenario": %s}`, typical)},
		{"missing scenario", `{"candidates": [` + advisor + `]}`},
	}
	h := NewHandler(New(Config{}), 30*time.Second)
	var b strings.Builder
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(c.body)))
		fmt.Fprintf(&b, "== %s: %d\n%s", c.name, rec.Code, rec.Body)
	}
	path := filepath.Join("testdata", "predict.golden")
	if updatePredict {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v (regenerate with UPDATE_GOLDEN=1)", path, err)
	}
	if got := b.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("golden has %d lines, got %d", len(wantLines), len(gotLines))
	}
}
