package core

import (
	"testing"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
	"hopp/internal/vmm"
)

// fakeBackend is a scriptable machine for executor tests.
type fakeBackend struct {
	states    map[memsim.PageKey]vmm.PageState
	latency   vclock.Duration
	fetched   []memsim.PageKey
	injects   map[memsim.PageKey]func(memsim.PageKey, vclock.Time)
	failNext  bool
	bulkCalls int
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		states:  make(map[memsim.PageKey]vmm.PageState),
		latency: 4 * vclock.Microsecond,
		injects: make(map[memsim.PageKey]func(memsim.PageKey, vclock.Time)),
	}
}

func (b *fakeBackend) PageState(key memsim.PageKey) vmm.PageState {
	if s, ok := b.states[key]; ok {
		return s
	}
	return vmm.SwappedOut
}

func (b *fakeBackend) Fetch(now vclock.Time, key memsim.PageKey, onInjected func(memsim.PageKey, vclock.Time)) bool {
	if b.failNext {
		b.failNext = false
		return false
	}
	b.fetched = append(b.fetched, key)
	b.injects[key] = onInjected
	return true
}

func (b *fakeBackend) FetchBulk(now vclock.Time, keys []memsim.PageKey, onInjected func(memsim.PageKey, vclock.Time)) bool {
	if b.failNext {
		b.failNext = false
		return false
	}
	b.bulkCalls++
	for _, k := range keys {
		b.fetched = append(b.fetched, k)
		b.injects[k] = onInjected
	}
	return true
}

func (b *fakeBackend) InjectSwapCached(now vclock.Time, key memsim.PageKey) bool {
	if b.states[key] != vmm.SwapCached {
		return false
	}
	b.states[key] = vmm.Mapped
	return true
}

// land simulates the injection event firing at arrival.
func (b *fakeBackend) land(key memsim.PageKey, arrival vclock.Time) {
	if fn, ok := b.injects[key]; ok {
		fn(key, arrival)
		delete(b.injects, key)
	}
}

func predFor(pid memsim.PID, tier Tier, pages ...memsim.VPN) Prediction {
	return Prediction{Stream: StreamRef{Index: 0, Gen: 1}, Tier: tier, PID: pid, Pages: pages}
}

func newExec() (*Executor, *fakeBackend, *Trainer) {
	b := newFakeBackend()
	tr := NewTrainer(DefaultParams())
	return NewExecutor(b, tr, tr.params), b, tr
}

func TestSubmitFetchInjectHit(t *testing.T) {
	x, b, _ := newExec()
	x.Submit(0, predFor(1, TierSSP, 100))
	if len(b.fetched) != 1 {
		t.Fatalf("fetched %d pages", len(b.fetched))
	}
	key := memsim.PageKey{PID: 1, VPN: 100}
	if !x.Inflight(key) {
		t.Fatal("request not inflight")
	}
	b.land(key, 4000)
	if x.Inflight(key) {
		t.Fatal("landed request still inflight")
	}
	if !x.IsPrefetched(key) {
		t.Fatal("landed request not tracked")
	}
	x.OnFirstHit(key, 50_000)
	s := x.Stats()
	if s.Issued != 1 || s.Arrived != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Accuracy() != 1 {
		t.Fatalf("accuracy = %f", s.Accuracy())
	}
	if s.MeanLead() != 46_000 {
		t.Fatalf("mean lead = %v, want 46 µs", s.MeanLead())
	}
	if x.Outstanding() != 0 {
		t.Fatal("request leaked")
	}
}

func TestDedupResidentAndInflight(t *testing.T) {
	x, b, _ := newExec()
	k1 := memsim.PageKey{PID: 1, VPN: 1}
	b.states[k1] = vmm.Mapped
	x.Submit(0, predFor(1, TierSSP, 1)) // resident: skip
	x.Submit(0, predFor(1, TierSSP, 2)) // ok
	x.Submit(0, predFor(1, TierSSP, 2)) // inflight dup: skip
	s := x.Stats()
	if s.Issued != 1 || s.SkipResident != 1 || s.SkipInflight != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if len(b.fetched) != 1 {
		t.Fatalf("backend fetched %d", len(b.fetched))
	}
}

func TestSkipUntouchedPages(t *testing.T) {
	x, b, _ := newExec()
	k := memsim.PageKey{PID: 1, VPN: 9}
	b.states[k] = vmm.Untouched
	x.Submit(0, predFor(1, TierRSP, 9))
	if x.Stats().SkipCold != 1 || x.Stats().Issued != 0 {
		t.Fatalf("stats = %+v", x.Stats())
	}
}

func TestBackendFetchFailure(t *testing.T) {
	x, b, _ := newExec()
	b.failNext = true
	x.Submit(0, predFor(1, TierSSP, 5))
	s := x.Stats()
	if s.Issued != 0 || s.SkipCold != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if x.Outstanding() != 0 {
		t.Fatal("failed fetch left state")
	}
}

func TestLateHit(t *testing.T) {
	x, b, tr := newExec()
	// Build a live stream so feedback has a target.
	preds := feed(tr, 1, seqVPNs(0, 1, 17))
	pred := preds[0]
	x.Submit(0, pred)
	key := memsim.PageKey{PID: 1, VPN: pred.Pages[0]}
	if !x.Inflight(key) {
		t.Fatal("not inflight")
	}
	o0, _ := tr.OffsetOf(pred.Stream)
	x.NoteLateHit(key, 1000)
	s := x.Stats()
	if s.LateHits != 1 || s.Hits != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Accuracy() != 1 {
		t.Fatalf("late hit must count toward accuracy: %f", s.Accuracy())
	}
	// A late hit means lead 0 < TMin: the offset must grow.
	if o1, _ := tr.OffsetOf(pred.Stream); o1 <= o0 {
		t.Fatalf("offset did not grow after late hit: %f -> %f", o0, o1)
	}
	_ = b
}

func TestEvictedPrefetchCountsAgainstAccuracy(t *testing.T) {
	x, b, _ := newExec()
	x.Submit(0, predFor(1, TierSSP, 7))
	key := memsim.PageKey{PID: 1, VPN: 7}
	b.land(key, 4000)
	x.OnEvicted(key)
	s := x.Stats()
	if s.Evicted != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Accuracy() != 0 {
		t.Fatalf("accuracy = %f, want 0", s.Accuracy())
	}
	// A hit after eviction must be ignored (the page is gone).
	x.OnFirstHit(key, 9000)
	if x.Stats().Hits != 0 {
		t.Fatal("hit counted after eviction")
	}
}

func TestHitBeforeLandingIgnored(t *testing.T) {
	x, _, _ := newExec()
	x.Submit(0, predFor(1, TierSSP, 3))
	key := memsim.PageKey{PID: 1, VPN: 3}
	x.OnFirstHit(key, 100) // not landed yet: OnFirstHit is for injected pages only
	if x.Stats().Hits != 0 {
		t.Fatal("unlanded hit counted")
	}
}

func TestPerTierAccounting(t *testing.T) {
	x, b, _ := newExec()
	x.Submit(0, predFor(1, TierSSP, 10))
	x.Submit(0, predFor(1, TierLSP, 11))
	x.Submit(0, predFor(1, TierRSP, 12))
	for _, v := range []memsim.VPN{10, 11, 12} {
		b.land(memsim.PageKey{PID: 1, VPN: v}, 4000)
		x.OnFirstHit(memsim.PageKey{PID: 1, VPN: v}, 8000)
	}
	s := x.Stats()
	if s.IssuedByTier[TierSSP] != 1 || s.IssuedByTier[TierLSP] != 1 || s.IssuedByTier[TierRSP] != 1 {
		t.Fatalf("issued by tier = %v", s.IssuedByTier)
	}
	if s.HitsByTier[TierSSP] != 1 || s.HitsByTier[TierLSP] != 1 || s.HitsByTier[TierRSP] != 1 {
		t.Fatalf("hits by tier = %v", s.HitsByTier)
	}
}

func TestPrefetcherEndToEnd(t *testing.T) {
	b := newFakeBackend()
	p := NewPrefetcher(DefaultParams(), b)
	// Stream of hot pages with stride 2; after history fills, every hot
	// page should produce one fetch.
	for i := 0; i < 30; i++ {
		p.OnHotPage(vclock.Time(i*1000), 1, memsim.VPN(100+i*2), false)
	}
	if got := p.Exec.Stats().Issued; got < 10 {
		t.Fatalf("issued = %d, want a steady prefetch flow", got)
	}
	// With offset 1 and no feedback, the j-th prediction is triggered by
	// hot page 132+2j and fetches exactly one stride ahead: 134+2j.
	for j, k := range b.fetched {
		if want := memsim.VPN(134 + 2*j); k.VPN != want {
			t.Fatalf("fetched[%d] = %d, want %d", j, k.VPN, want)
		}
	}
}

// recordingBackend keeps only the last fetch's callback, so it never
// allocates itself.
type recordingBackend struct {
	onInjected func(memsim.PageKey, vclock.Time)
}

func (b *recordingBackend) PageState(memsim.PageKey) vmm.PageState { return vmm.SwappedOut }
func (b *recordingBackend) Fetch(_ vclock.Time, _ memsim.PageKey, onInjected func(memsim.PageKey, vclock.Time)) bool {
	b.onInjected = onInjected
	return true
}
func (b *recordingBackend) InjectSwapCached(vclock.Time, memsim.PageKey) bool { return false }
func (b *recordingBackend) FetchBulk(vclock.Time, []memsim.PageKey, func(memsim.PageKey, vclock.Time)) bool {
	return false
}

// A fetch's whole life — submit, landing, first hit — stays off the
// heap: the executor hands every fetch the same injection callback
// rather than a closure over the page.
func TestExecutorFetchZeroAlloc(t *testing.T) {
	b := &recordingBackend{}
	tr := NewTrainer(DefaultParams())
	x := NewExecutor(b, tr, tr.params)
	pred := predFor(1, TierSSP, 0)
	cycle := func() {
		for v := memsim.VPN(1); v <= 32; v++ {
			pred.Pages[0] = v
			key := memsim.PageKey{PID: 1, VPN: v}
			x.Submit(0, pred)
			b.onInjected(key, 10)
			x.OnFirstHit(key, 20)
		}
	}
	cycle() // size the request map
	if avg := testing.AllocsPerRun(20, cycle); avg > 0 {
		t.Fatalf("a fetch's life allocates %.1f times per 32 fetches, want 0", avg)
	}
	if s := x.Stats(); s.Issued == 0 || s.Hits != s.Issued {
		t.Fatalf("stats %+v: every fetch should issue, land and hit", s)
	}
}
