package httpapi

// Regression tests for the error-wrapping contract on the serving
// path: context-expiry errors surfacing from deep inside the
// evaluation loops must stay errors.Is-classifiable when they reach
// writeCtxError, so the structured 503 "deadline" / 499 "canceled"
// mapping never degrades into a generic bad_request.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"contextpref"
	"contextpref/internal/dataset"
)

// TestScanErrorStaysClassifiable drives a real query evaluation with
// an already-canceled context and asserts the error that comes back
// up through SafeSystem still matches context.Canceled — the
// in-process half of the contract writeCtxError depends on. The
// per-state check in query.ExecuteCtx fires before any work, so the
// path is deterministic regardless of profile size.
func TestScanErrorStaysClassifiable(t *testing.T) {
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := contextpref.NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	safe, err := dir.User("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := safe.LoadProfile("[] => type = museum : 0.6"); err != nil {
		t.Fatal(err)
	}
	vals := make([]string, env.NumParams())
	for i := 0; i < env.NumParams(); i++ {
		vals[i] = env.Param(i).Hierarchy().DetailedValues()[0]
	}
	st, err := safe.NewState(vals...)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := contextpref.ParseQuery("")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, scanErr := safe.QueryCtx(ctx, cq, st)
	if scanErr == nil {
		t.Fatal("query with canceled context succeeded, want a wrapped ctx error")
	}
	if !errors.Is(scanErr, context.Canceled) {
		t.Errorf("errors.Is(scanErr, context.Canceled) = false for %v", scanErr)
	}
	// A further wrap — as the handler plumbing does — must not break
	// classification either.
	wrapped := fmt.Errorf("httpapi: request ended during evaluation: %w", scanErr)
	if !errors.Is(wrapped, context.Canceled) {
		t.Errorf("rewrapped error lost its cause: %v", wrapped)
	}
}

// TestWriteCtxErrorClassification pins the HTTP mapping itself: a
// deadline chain answers 503 {"code":"deadline"}, a cancel chain 499
// {"code":"canceled"}, and an unrelated error is left for the generic
// mapping.
func TestWriteCtxErrorClassification(t *testing.T) {
	s := &Server{}
	s.init(nil)

	cases := []struct {
		err     error
		handled bool
		status  int
		code    string
	}{
		{fmt.Errorf("profiletree: scan stopped: %w", context.DeadlineExceeded), true, 503, "deadline"},
		{fmt.Errorf("relation r: scan stopped: %w", context.Canceled), true, statusClientClosedRequest, "canceled"},
		{fmt.Errorf("parse: bad input"), false, 0, ""},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		if got := s.writeCtxError(rec, tc.err); got != tc.handled {
			t.Errorf("writeCtxError(%v) = %v, want %v", tc.err, got, tc.handled)
			continue
		}
		if !tc.handled {
			continue
		}
		if rec.Code != tc.status {
			t.Errorf("status for %v = %d, want %d", tc.err, rec.Code, tc.status)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("response body is not the structured JSON error: %v", err)
		}
		if body["code"] != tc.code {
			t.Errorf("code for %v = %q, want %q", tc.err, body["code"], tc.code)
		}
	}
}
