package main

import (
	"bytes"
	"testing"
)

func bodies(t *testing.T, workload string, seed int64) [][]byte {
	t.Helper()
	sl, err := newServingLoad(workload, seed, 64)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, rs := range [][]request{sl.first, sl.warmup, sl.reqs} {
		for _, q := range rs {
			out = append(out, q.body)
		}
	}
	for _, tn := range sl.tenants {
		out = append(out, tn.body)
	}
	return out
}

func TestRequestsDeterministicPerSeed(t *testing.T) {
	for _, wl := range []string{"plan-hot", "plan-tenants"} {
		a, b, c := bodies(t, wl, 7), bodies(t, wl, 7), bodies(t, wl, 8)
		if len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("%s: request counts %d, %d, %d differ", wl, len(a), len(b), len(c))
		}
		same := 0
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: body %d differs between two generations with seed 7", wl, i)
			}
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%s: seeds 7 and 8 generate identical requests", wl)
		}
	}
}

func TestTenantMixMissesTheCatalog(t *testing.T) {
	sl, err := newServingLoad("plan-tenants", 3, 3000)
	if err != nil {
		t.Fatal(err)
	}
	hot, algos := 0, map[string]int{}
	for _, q := range sl.reqs {
		if q.tenant < hotTenants {
			hot++
		}
		algos[q.plan.Algorithm]++
	}
	if frac := float64(hot) / float64(len(sl.reqs)); frac < 0.6 || frac > 0.72 {
		t.Errorf("hot tenants take %.2f of the requests, want about two thirds", frac)
	}
	for _, a := range []string{"approx", "approx-pk", "baseline1", "baseline2"} {
		if algos[a] == 0 {
			t.Errorf("no %s requests", a)
		}
	}
	if algos["approx"] < len(sl.reqs)/2 {
		t.Errorf("approx is %d of %d requests, want most", algos["approx"], len(sl.reqs))
	}
}
