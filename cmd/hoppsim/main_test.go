package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"hopp/internal/service"
	"hopp/internal/sim"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// A -quick run must report what hoppd serves for the same request: the
// same catalog workload at the same scale on the same quick-mode
// machine, not a quick workload on full-size caches.
func TestQuickMatchesService(t *testing.T) {
	code, out, errs := runCmd(t, "-workload", "npb-mg", "-system", "hopp", "-frac", "0.5", "-seed", "1", "-quick")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}

	e := service.NewEngine(service.Options{Workers: 1})
	defer e.Close()
	frac := 0.5
	st, err := e.Submit(service.RunRequest{Workload: "npb-mg", System: "hopp", Frac: &frac, Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err = e.Wait(context.Background(), st.ID)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("service run: state %s, err %v (%s)", st.State, err, st.Error)
	}
	var met sim.Metrics
	if err := json.Unmarshal(st.Metrics, &met); err != nil {
		t.Fatal(err)
	}

	want := fmt.Sprintf("completion time   %v  (", met.CompletionTime)
	if !strings.Contains(out, want) {
		t.Fatalf("hoppsim -quick output lacks the service's %q:\n%s", want, out)
	}
}

// Requests the catalog rejects are usage errors.
func TestBadRequestExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-quick"},
		{"-system", "nope", "-quick"},
		{"-frac", "1", "-quick"},
	} {
		code, out, errs := runCmd(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errs)
		}
		if out != "" || errs == "" {
			t.Errorf("%v: stdout %q, stderr %q; want only a diagnostic", args, out, errs)
		}
	}
}
