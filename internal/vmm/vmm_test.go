package vmm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

func key(pid memsim.PID, vpn memsim.VPN) memsim.PageKey {
	return memsim.PageKey{PID: pid, VPN: vpn}
}

// residentPages returns how many local frames are resident: a frame is
// either never handed out, on the free list, or resident.
func residentPages(v *VMM) int { return int(v.nextPPN) - len(v.freePPNs) }

func newVMM(t *testing.T, cfg Config, pid memsim.PID, limit int) *VMM {
	t.Helper()
	v := New(cfg)
	if _, err := v.Register(pid, limit); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCostModelMatchesPaper(t *testing.T) {
	c := DefaultCosts()
	if got := c.PrefetchHit(); got != 2300*vclock.Nanosecond {
		t.Fatalf("PrefetchHit = %v, want 2.3 µs", got)
	}
	if got := c.DemandFixed(); got != 2300*vclock.Nanosecond {
		t.Fatalf("DemandFixed = %v, want 2.3 µs excl. network", got)
	}
	// Prefetch-hit is "at least 23x higher than a DRAM-hit" (§II-C).
	if float64(c.PrefetchHit())/float64(c.DRAMHit) < 23 {
		t.Fatal("prefetch-hit / DRAM-hit ratio below paper's 23x")
	}
}

func TestLifecycleUntouchedToSwappedOut(t *testing.T) {
	v := newVMM(t, Config{}, 1, 1)
	k1, k2 := key(1, 10), key(1, 11)
	if v.Lookup(k1) != Untouched {
		t.Fatal("fresh page not Untouched")
	}
	if _, err := v.MapNew(k1); err != nil {
		t.Fatal(err)
	}
	if v.Lookup(k1) != Mapped {
		t.Fatal("mapped page not Mapped")
	}
	if _, err := v.MapNew(k2); err != nil {
		t.Fatal(err)
	}
	vics := v.ReclaimInto(1, nil) // limit 1: k1 (LRU) must go
	if len(vics) != 1 || vics[0].Key != k1 || !vics[0].WasMapped {
		t.Fatalf("victims = %+v", vics)
	}
	if v.Lookup(k1) != SwappedOut {
		t.Fatalf("evicted page state = %v", v.Lookup(k1))
	}
	if v.Lookup(k2) != Mapped {
		t.Fatal("survivor page state wrong")
	}
}

func TestTouchPromotesLRU(t *testing.T) {
	v := newVMM(t, Config{}, 1, 2)
	a, b, c := key(1, 1), key(1, 2), key(1, 3)
	v.MapNew(a)
	v.MapNew(b)
	if _, err := v.Touch(a); err != nil { // a becomes MRU, b is LRU
		t.Fatal(err)
	}
	v.MapNew(c)
	vics := v.ReclaimInto(1, nil)
	if len(vics) != 1 || vics[0].Key != b {
		t.Fatalf("expected b evicted, got %+v", vics)
	}
}

func TestSwapCachePathAndPromotion(t *testing.T) {
	v := newVMM(t, Config{}, 1, 10)
	k := key(1, 5)
	ppn, err := v.InsertSwapCache(k)
	if err != nil {
		t.Fatal(err)
	}
	if v.Lookup(k) != SwapCached {
		t.Fatal("not SwapCached")
	}
	// Uncharged by default (Fastswap/Leap accounting).
	if v.grp(1).charged != 0 {
		t.Fatal("swapcache page charged despite ChargePrefetched=false")
	}
	got, err := v.PromoteSwapCache(k)
	if err != nil {
		t.Fatal(err)
	}
	if got != ppn {
		t.Fatalf("promotion changed frame: %d -> %d", ppn, got)
	}
	if v.Lookup(k) != Mapped || v.grp(1).charged != 1 {
		t.Fatal("promotion did not map+charge")
	}
}

func TestChargePrefetchedAccounting(t *testing.T) {
	v := newVMM(t, Config{ChargePrefetched: true}, 1, 10)
	v.InsertSwapCache(key(1, 5))
	if v.grp(1).charged != 1 {
		t.Fatal("HoPP-style accounting did not charge swapcache page")
	}
}

func TestStaleInactiveEvictedBeforeActive(t *testing.T) {
	// A swapcache page is stale once more than inactiveProtect newer
	// inserts have landed: with exactly inactiveProtect it is still
	// shielded and the cold active page goes; one more pushes it
	// strictly past the window and it goes first.
	for _, newer := range []int{inactiveProtect, inactiveProtect + 1} {
		v := newVMM(t, Config{ChargePrefetched: true}, 1, newer+2)
		m, stale := key(1, 1), key(1, 2)
		v.MapNew(m)
		v.InsertSwapCache(stale)
		for i := 0; i < newer; i++ {
			v.InsertSwapCache(key(1, memsim.VPN(10+i)))
		}
		v.MapNew(key(1, 3)) // over limit by 1
		vics := v.ReclaimInto(1, nil)
		if newer == inactiveProtect {
			if len(vics) != 1 || vics[0].Key != m || !vics[0].WasMapped {
				t.Fatalf("%d newer inserts: expected the cold active page evicted, got %+v", newer, vics)
			}
			if v.Lookup(stale) != SwapCached {
				t.Fatalf("%d newer inserts: protected prefetch was sacrificed", newer)
			}
			continue
		}
		if len(vics) != 1 || vics[0].Key != stale || !vics[0].WasSwapCached {
			t.Fatalf("%d newer inserts: expected the stale swapcache page evicted first, got %+v", newer, vics)
		}
		if v.Stats().EvictedSwapCached != 1 {
			t.Fatal("EvictedSwapCached not counted")
		}
	}
}

func TestFreshSwapCacheShieldedFromReclaim(t *testing.T) {
	v := newVMM(t, Config{ChargePrefetched: true}, 1, 2)
	m, s := key(1, 1), key(1, 2)
	v.MapNew(m)
	v.InsertSwapCache(s) // fresh: within the protect window
	v.MapNew(key(1, 3))  // over limit by 1
	vics := v.ReclaimInto(1, nil)
	if len(vics) != 1 || vics[0].Key != m || !vics[0].WasMapped {
		t.Fatalf("expected the cold active page evicted, got %+v", vics)
	}
	if v.Lookup(s) != SwapCached {
		t.Fatal("fresh prefetch was sacrificed")
	}
}

func TestFreshInactiveEvictedAsLastResort(t *testing.T) {
	v := newVMM(t, Config{ChargePrefetched: true}, 1, 1)
	v.InsertSwapCache(key(1, 1))
	v.InsertSwapCache(key(1, 2)) // over limit; no active pages exist
	vics := v.ReclaimInto(1, nil)
	if len(vics) != 1 || !vics[0].WasSwapCached {
		t.Fatalf("last-resort eviction failed: %+v", vics)
	}
}

func TestInjectedPageLifecycle(t *testing.T) {
	v := newVMM(t, Config{ChargePrefetched: true}, 1, 10)
	k := key(1, 7)
	if _, err := v.MapRemote(k, true); err != nil {
		t.Fatal(err)
	}
	if !v.grp(1).resident(7).injected {
		t.Fatal("injected flag not set")
	}
	if v.Lookup(k) != Mapped {
		t.Fatal("injected page must be Mapped (that is the whole point)")
	}
	v.Touch(k)
	if v.grp(1).resident(7).injected {
		t.Fatal("touch did not consume injection")
	}
	if v.Stats().Injections != 1 {
		t.Fatal("injection not counted")
	}
}

func TestEvictedInjectedCounted(t *testing.T) {
	v := newVMM(t, Config{ChargePrefetched: true}, 1, 1)
	v.MapRemote(key(1, 1), true)
	v.MapRemote(key(1, 2), true) // over limit; LRU (vpn 1) evicted untouched
	vics := v.ReclaimInto(1, nil)
	if len(vics) != 1 || !vics[0].WasInjected {
		t.Fatalf("victims = %+v", vics)
	}
	if v.Stats().EvictedInjected != 1 {
		t.Fatal("EvictedInjected not counted")
	}
}

func TestHooksFire(t *testing.T) {
	v := newVMM(t, Config{}, 1, 1)
	var sets, clears []memsim.PPN
	v.OnSetPTE = func(ppn memsim.PPN, pid memsim.PID, vpn memsim.VPN) { sets = append(sets, ppn) }
	v.OnClearPTE = func(ppn memsim.PPN) { clears = append(clears, ppn) }
	v.MapNew(key(1, 1))
	v.MapNew(key(1, 2))
	v.ReclaimInto(1, nil)
	if len(sets) != 2 {
		t.Fatalf("OnSetPTE fired %d times, want 2", len(sets))
	}
	if len(clears) != 1 {
		t.Fatalf("OnClearPTE fired %d times, want 1", len(clears))
	}
	// Swapcache insert must NOT set a PTE; promotion must.
	sets = nil
	v2 := newVMM(t, Config{}, 1, 10)
	v2.OnSetPTE = func(ppn memsim.PPN, pid memsim.PID, vpn memsim.VPN) { sets = append(sets, ppn) }
	v2.InsertSwapCache(key(1, 9))
	if len(sets) != 0 {
		t.Fatal("swapcache insert set a PTE")
	}
	v2.PromoteSwapCache(key(1, 9))
	if len(sets) != 1 {
		t.Fatal("promotion did not set a PTE")
	}
}

func TestPPNReuse(t *testing.T) {
	v := newVMM(t, Config{}, 1, 1)
	p1, _ := v.MapNew(key(1, 1))
	v.MapNew(key(1, 2))
	v.ReclaimInto(1, nil)
	p3, _ := v.MapNew(key(1, 3))
	v.ReclaimInto(1, nil)
	if p3 != p1 {
		t.Fatalf("freed frame not reused: first=%d third=%d", p1, p3)
	}
}

func TestErrors(t *testing.T) {
	v := newVMM(t, Config{}, 1, 0)
	if _, err := v.Register(1, 0); err == nil {
		t.Error("double Register accepted")
	}
	if _, err := v.MapNew(key(2, 1)); err == nil {
		t.Error("unregistered PID accepted")
	}
	v.MapNew(key(1, 1))
	if _, err := v.MapNew(key(1, 1)); err == nil {
		t.Error("double map accepted")
	}
	if _, err := v.PromoteSwapCache(key(1, 1)); err == nil {
		t.Error("promoting a mapped page accepted")
	}
	if _, err := v.Touch(key(1, 99)); err == nil {
		t.Error("touch of absent page accepted")
	}
}

// Pages far apart in one cgroup — one in a presized region at VPN
// 0x10000, one at the top of the VPN space — each go minor fault →
// mapped → evicted → major fault → mapped, and neither disturbs the
// other's classification.
func TestDistantVPNsLifecycle(t *testing.T) {
	v := newVMM(t, Config{}, 1, 1)
	low, high := key(1, 0x10000), key(1, memsim.MaxVPN-1)
	v.Presize(1, 0x10000, 0x10040)
	state := func(k memsim.PageKey, want PageState) {
		t.Helper()
		if got := v.Lookup(k); got != want {
			t.Fatalf("Lookup(%v) = %v, want %v", k, got, want)
		}
		if got, _, _ := v.Access(k); got != want {
			t.Fatalf("Access(%v) = %v, want %v", k, got, want)
		}
	}
	state(low, Untouched)
	state(high, Untouched)
	for _, k := range []memsim.PageKey{low, high} {
		if _, err := v.MapNew(k); err != nil {
			t.Fatal(err)
		}
		state(k, Mapped)
	}
	// Limit 1: mapping high evicts low; re-faulting low evicts high.
	if vics := v.ReclaimInto(1, nil); len(vics) != 1 || vics[0].Key != low {
		t.Fatalf("victims = %+v, want %v", vics, low)
	}
	state(low, SwappedOut)
	state(high, Mapped)
	if _, err := v.MapRemote(low, false); err != nil {
		t.Fatal(err)
	}
	if vics := v.ReclaimInto(1, nil); len(vics) != 1 || vics[0].Key != high {
		t.Fatalf("victims = %+v, want %v", vics, high)
	}
	state(low, Mapped)
	state(high, SwappedOut)
	if _, err := v.MapRemote(high, false); err != nil {
		t.Fatal(err)
	}
	state(high, Mapped)
	state(key(1, memsim.MaxVPN), Untouched)
	state(key(1, 0x10001), Untouched)
}

func TestPerCgroupIsolation(t *testing.T) {
	v := New(Config{})
	v.Register(1, 1)
	v.Register(2, 10)
	v.MapNew(key(1, 1))
	v.MapNew(key(2, 1))
	v.MapNew(key(2, 2))
	v.MapNew(key(1, 2)) // pid 1 over limit
	vics := v.ReclaimInto(1, nil)
	if len(vics) != 1 || vics[0].Key.PID != 1 {
		t.Fatalf("reclaim crossed cgroups: %+v", vics)
	}
	if v.grp(2).charged != 2 {
		t.Fatal("pid 2 charge disturbed")
	}
}

// Property: charged counts and resident totals stay consistent through
// arbitrary operation sequences, and reclaim always restores the limit.
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := New(Config{ChargePrefetched: rng.Intn(2) == 0})
		limit := rng.Intn(20) + 5
		v.Register(1, limit)
		for i := 0; i < 300; i++ {
			k := key(1, memsim.VPN(rng.Intn(64)))
			switch v.Lookup(k) {
			case Untouched:
				v.MapNew(k)
			case SwappedOut:
				v.MapRemote(k, rng.Intn(2) == 0)
			case SwapCached:
				v.PromoteSwapCache(k)
			case Mapped:
				v.Touch(k)
			}
			if rng.Intn(5) == 0 {
				k2 := key(1, memsim.VPN(64+rng.Intn(64)))
				if v.Lookup(k2) == Untouched || v.Lookup(k2) == SwappedOut {
					v.InsertSwapCache(k2)
				}
			}
			v.ReclaimInto(1, nil)
			g := v.grp(1)
			if g.OverLimit() != 0 {
				return false
			}
			if g.charged < 0 || g.charged > residentPages(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
