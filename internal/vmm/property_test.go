package vmm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hopp/internal/memsim"
)

// Property: frame allocation never hands out a PPN that is currently
// mapped or swapcached (no aliasing), across arbitrary operation mixes.
func TestNoFrameAliasingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := New(Config{ChargePrefetched: rng.Intn(2) == 0})
		v.Register(1, rng.Intn(30)+5)
		inUse := make(map[memsim.PPN]memsim.PageKey)
		claim := func(ppn memsim.PPN, k memsim.PageKey) bool {
			if prev, clash := inUse[ppn]; clash && prev != k {
				return false
			}
			inUse[ppn] = k
			return true
		}
		for i := 0; i < 500; i++ {
			k := memsim.PageKey{PID: 1, VPN: memsim.VPN(rng.Intn(80))}
			switch v.Lookup(k) {
			case Untouched:
				ppn, err := v.MapNew(k)
				if err != nil || !claim(ppn, k) {
					return false
				}
			case SwappedOut:
				ppn, err := v.MapRemote(k, rng.Intn(2) == 0)
				if err != nil || !claim(ppn, k) {
					return false
				}
			case SwapCached:
				if rng.Intn(2) == 0 {
					if _, err := v.PromoteSwapCache(k); err != nil {
						return false
					}
				} else {
					if _, err := v.PromoteInjected(k); err != nil {
						return false
					}
				}
			case Mapped:
				v.Touch(k)
			}
			for _, vic := range v.ReclaimInto(1, nil) {
				if inUse[vic.PPN] != vic.Key {
					return false // evicted a frame we did not own
				}
				delete(inUse, vic.PPN)
			}
		}
		return len(inUse) == residentPages(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: a page touched more recently than another is never evicted
// before it (strict LRU ordering on the active list).
func TestLRUOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := New(Config{})
		limit := 16
		v.Register(1, limit)
		lastTouch := make(map[memsim.PageKey]int)
		now := 0
		touch := func(k memsim.PageKey) bool {
			now++
			switch v.Lookup(k) {
			case Untouched:
				v.MapNew(k)
			case SwappedOut:
				v.MapRemote(k, false)
			case Mapped:
				v.Touch(k)
			}
			lastTouch[k] = now
			for _, vic := range v.ReclaimInto(1, nil) {
				// The victim must be the least recently touched resident page.
				for other, ts := range lastTouch {
					if other == vic.Key {
						continue
					}
					if st := v.Lookup(other); st == Mapped && ts < lastTouch[vic.Key] {
						return false
					}
				}
				delete(lastTouch, vic.Key)
			}
			return true
		}
		for i := 0; i < 400; i++ {
			if !touch(memsim.PageKey{PID: 1, VPN: memsim.VPN(rng.Intn(40))}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
