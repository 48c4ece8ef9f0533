package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"hopp/internal/cachesim"
	"hopp/internal/core"
	"hopp/internal/experiments"
	"hopp/internal/hmtt"
	"hopp/internal/hpd"
	"hopp/internal/mc"
	"hopp/internal/memsim"
	"hopp/internal/rdma"
	"hopp/internal/rpt"
	"hopp/internal/vclock"
	"hopp/internal/vmm"
	"hopp/internal/workload"
)

// layerMetrics computes every per-layer metric of a traced run. The
// service-layer metrics come from the samples the timed phase recorded;
// a workload whose traffic does not reach a service half (single runs
// and sweeps, ingest sessions, experiment regeneration) gets a small
// probe of it instead. The simulator-layer metrics come from replaying
// the workload's simulation points through each layer and from
// decorated runs of the same points.
func layerMetrics(o options, inst instance, tr *trace, out *outcome) (map[string]float64, error) {
	if !tr.has("service.submit_us") {
		if err := probeJobs(o, tr, out); err != nil {
			return nil, err
		}
	}
	if !tr.has("ingest.window_seal_ms") {
		if err := probeIngest(o, tr, out); err != nil {
			return nil, err
		}
	}
	// The experiments layer is timed on the two golden experiments; the
	// expset-quick workload times every experiment end to end.
	for _, id := range goldenIDs {
		if tr.has("experiments." + id + "_s") {
			continue
		}
		if err := probeExperiment(o, tr, id); err != nil {
			return nil, err
		}
	}
	v := map[string]float64{
		"service.submit_us":         median(tr.get("service.submit_us")),
		"service.status_us":         median(tr.get("service.status_us")),
		"service.cache_hit_us":      median(tr.get("service.cache_hit_us")),
		"service.queue_wait_ms_p50": median(tr.get("service.queue_wait_ms")),
		"service.queue_wait_ms_p90": quantile(tr.get("service.queue_wait_ms"), 0.9),
		"service.run_ms_p50":        median(tr.get("service.run_ms")),
		"service.sweep_ms":          median(tr.get("service.sweep_ms")),
		"service.streams_per_sweep": ratio(tr.total("service.streams"), tr.total("service.sweeps")),
		"ingest.chunk_ack_ms_p50":   median(tr.get("ingest.chunk_ack_ms")),
		"ingest.chunk_ack_ms_p90":   quantile(tr.get("ingest.chunk_ack_ms"), 0.9),
		"ingest.window_seal_ms_p50": median(tr.get("ingest.window_seal_ms")),
		"ingest.paused_per_kchunk":  1000 * ratio(tr.total("ingest.paused"), tr.total("ingest.chunks")),
		"journal.write_us":          median(tr.get("journal.write_us")),
		"journal.writes_per_op":     ratio(tr.total("journal.writes"), tr.total("service.ops")),
	}
	for _, id := range goldenIDs {
		v["experiments."+id+"_s"] = median(tr.get("experiments." + id + "_s"))
	}
	if err := simLayers(o, inst.replay(), v, out); err != nil {
		return nil, err
	}
	return v, nil
}

// probeJobs runs one small daemon round against a fresh service.
func probeJobs(o options, tr *trace, out *outcome) error {
	s, err := startSvc(o)
	if err != nil {
		return err
	}
	s.traceInto(tr)
	d := &daemon{s: s, seed: o.seed}
	d.round(1, smallMix, tr, out)
	d.verify(out)
	return s.close()
}

// probeIngest runs one small ingest session against a fresh service.
func probeIngest(o options, tr *trace, out *outcome) error {
	l, err := newIngestLoad(o, tinySources)
	if err != nil {
		return err
	}
	l.s.traceInto(tr)
	l.session(1, tr, out)
	return l.close()
}

// probeExperiment times one quick regeneration of an experiment.
func probeExperiment(o options, tr *trace, id string) error {
	e, ok := experiments.ByID(id)
	if !ok {
		return fmt.Errorf("experiment %s missing", id)
	}
	start := time.Now()
	if _, err := render(e, o.seed); err != nil {
		return fmt.Errorf("probe %s: %w", id, err)
	}
	tr.sample("experiments."+id+"_s", time.Since(start).Seconds())
	return nil
}

// chainCosts is one app's replay through the layers a simulated access
// crosses, each layer timed on its own.
type chainCosts struct {
	next, vmmAccess, vmmFault, cache, mc, hpd, rpt, core, rdma, clock, decode cost
}

func (c *chainCosts) add(o chainCosts) {
	c.next.add(o.next)
	c.vmmAccess.add(o.vmmAccess)
	c.vmmFault.add(o.vmmFault)
	c.cache.add(o.cache)
	c.mc.add(o.mc)
	c.hpd.add(o.hpd)
	c.rpt.add(o.rpt)
	c.core.add(o.core)
	c.rdma.add(o.rdma)
	c.clock.add(o.clock)
	c.decode.add(o.decode)
}

// replayChunk is how many accesses each replay stage handles between
// two clock reads.
const replayChunk = 1 << 12

// since returns the nanoseconds elapsed since t.
func since(t time.Time) float64 { return float64(time.Since(t)) }

// replayChain feeds one app's own access stream through each layer's
// exported entry point, stage by stage, a chunk of accesses at a time:
// a fresh generator with the run's seed → vmm (classification, and
// MapNew/MapRemote + ReclaimInto on faults, at the point's memory limit)
// → its PPNs → cachesim → the LLC misses → mc (ObserveMiss, then
// Pending/DrainInto), hpd and rpt on their own → the hot pages → core's
// Trainer.Observe; the major faults' times → rdma PageRead → vclock
// Schedule/RunUntil; and the misses as HMTT records → Decoder.Feed.
// Prefetching is not modelled here: the replay measures each layer's
// cost per call, and the decorated real runs supply the call counts.
func replayChain(p point, seed int64) (chainCosts, error) {
	var c chainCosts
	gen := p.gen()
	gen.Reset(seed)
	l2Bytes, llcBytes := p.cacheBytes()
	caches := cachesim.NewHierarchy(
		cachesim.New(cachesim.Config{Name: "L2", SizeBytes: l2Bytes, Ways: 8}),
		cachesim.New(cachesim.Config{Name: "LLC", SizeBytes: llcBytes, Ways: 16}),
	)
	vm := vmm.New(vmm.Config{})
	limit := 0
	if p.frac > 0 {
		limit = int(math.Ceil(p.frac * float64(gen.FootprintPages())))
	}
	const pid = memsim.PID(1)
	if _, err := vm.Register(pid, limit); err != nil {
		return c, err
	}
	for _, r := range gen.Regions() {
		vm.Presize(pid, r.Start, r.End())
	}
	ctl := mc.MustNew(mc.Config{})
	table := hpd.MustNew(hpd.Default())
	rptCache := rpt.MustNewCache(rpt.NewTable(), rpt.CacheConfig{})
	trainer := core.NewTrainer(core.DefaultParams())
	fabric := rdma.NewFabric(rdma.Config{Seed: seed + 7777})
	var queue vclock.EventQueue
	capture := hmtt.NewCapture(replayChunk)
	var decoder hmtt.Decoder
	decoded := 0
	emit := func(hmtt.Record, int) { decoded++ }
	nop := func(vclock.Time) {}

	type mapping struct {
		ppn memsim.PPN
		vpn memsim.VPN
	}
	accs := make([]workload.Access, replayChunk)
	pas := make([]memsim.PAddr, replayChunk)
	times := make([]vclock.Time, replayChunk)
	misses := make([]int, 0, replayChunk)
	maps := make([]mapping, 0, replayChunk)
	faults := make([]vclock.Time, 0, replayChunk)
	arrivals := make([]vclock.Time, 0, replayChunk)
	hot := make([]mc.HotPage, 0, replayChunk)
	var victims []vmm.Victim
	var encoded []byte
	var rec [hmtt.RecordSize]byte
	now := vclock.Time(0)
	for {
		t := time.Now()
		n := 0
		for n < replayChunk {
			a, ok := gen.Next()
			if !ok {
				break
			}
			accs[n] = a
			n++
		}
		c.next.add(cost{since(t), float64(n)})
		if n == 0 {
			break
		}

		maps, faults = maps[:0], faults[:0]
		faultNS := 0.0
		t = time.Now()
		for i := 0; i < n; i++ {
			a := &accs[i]
			now = now.Add(a.Think)
			times[i] = now
			key := memsim.PageKey{PID: pid, VPN: a.Addr.Page()}
			state, ppn, _ := vm.Access(key)
			if state != vmm.Mapped {
				ft := time.Now()
				var err error
				switch state {
				case vmm.SwappedOut:
					ppn, err = vm.MapRemote(key, false)
					faults = append(faults, now)
				case vmm.Untouched:
					ppn, err = vm.MapNew(key)
				default:
					err = fmt.Errorf("page %v in state %v without prefetching", key, state)
				}
				if err != nil {
					return c, err
				}
				victims = vm.ReclaimInto(pid, victims[:0])
				faultNS += since(ft)
				maps = append(maps, mapping{ppn, key.VPN})
			}
			line := int(uint64(a.Addr)>>memsim.LineShift) & (memsim.LinesPerPage - 1)
			pas[i] = ppn.LineAddr(line)
		}
		total := since(t)
		c.vmmFault.add(cost{faultNS, float64(len(maps))})
		c.vmmAccess.add(cost{total - faultNS, float64(n)})

		misses = misses[:0]
		t = time.Now()
		for i := 0; i < n; i++ {
			if caches.Access(pas[i]) == cachesim.LevelMemory {
				misses = append(misses, i)
			}
		}
		c.cache.add(cost{since(t), float64(n)})

		// The kernel's PTE hooks keep the RPT current; they are not
		// what this replay times.
		for _, m := range maps {
			ctl.SetMapping(m.ppn, pid, m.vpn, false, 0)
			rptCache.Update(m.ppn, rpt.Entry{PID: pid, VPN: m.vpn, Valid: true})
		}
		hot = hot[:0]
		t = time.Now()
		for _, i := range misses {
			ctl.ObserveMiss(times[i], pas[i], accs[i].Write)
			if ctl.Pending() != 0 {
				hot = ctl.DrainInto(hot, 0)
			}
		}
		c.mc.add(cost{since(t), float64(len(misses))})

		t = time.Now()
		for _, i := range misses {
			table.Access(pas[i].Page())
		}
		c.hpd.add(cost{since(t), float64(len(misses))})

		t = time.Now()
		for i := range hot {
			rptCache.Lookup(hot[i].PPN)
		}
		c.rpt.add(cost{since(t), float64(len(hot))})

		observed := 0
		t = time.Now()
		for i := range hot {
			if hp := &hot[i]; hp.Mapped {
				trainer.Observe(hp.Time, hp.PID, hp.VPN)
				observed++
			}
		}
		c.core.add(cost{since(t), float64(observed)})

		arrivals = arrivals[:0]
		t = time.Now()
		for _, ft := range faults {
			arrivals = append(arrivals, fabric.PageRead(ft))
		}
		c.rdma.add(cost{since(t), float64(len(faults))})

		t = time.Now()
		for i, ft := range faults {
			queue.Schedule(arrivals[i], nop)
			queue.RunUntil(ft)
		}
		c.clock.add(cost{since(t), float64(len(faults))})

		encoded = encoded[:0]
		for _, i := range misses {
			capture.Observe(times[i], pas[i].Page(), accs[i].Write)
		}
		for _, r := range capture.Drain(0) {
			r.Encode(rec[:])
			encoded = append(encoded, rec[:]...)
		}
		before := decoded
		t = time.Now()
		for off := 0; off < len(encoded); off += chunkRecords * hmtt.RecordSize {
			decoder.Feed(encoded[off:min(off+chunkRecords*hmtt.RecordSize, len(encoded))], emit)
		}
		c.decode.add(cost{since(t), float64(decoded - before)})
	}
	queue.RunUntil(vclock.Time(math.MaxInt64))
	return c, nil
}

// batteryRun is one of the real runs behind the call counts: an own
// point runs untraced and decorated, an added point decorated only.
type batteryRun struct {
	p     point
	own   bool
	plain simRun // untraced run; own points only
	dec   simRun // decorated run
}

// battery works app by app, so that each app's replay and the runs it
// explains see the same host conditions: the app's chain replay, its
// own points untraced and decorated, then decorated runs of its local
// run, HoPP and each registry scheme at the app's memory fraction. It
// returns the runs, each app's replay, and the replays' sum.
func battery(o options, own []point, out *outcome) ([]batteryRun, map[string]chainCosts, chainCosts, error) {
	var order []string
	byApp := map[string][]point{}
	for _, p := range own {
		if _, ok := byApp[p.app]; !ok {
			order = append(order, p.app)
		}
		byApp[p.app] = append(byApp[p.app], p)
	}
	var runs []batteryRun
	chains := map[string]chainCosts{}
	var total chainCosts
	for _, app := range order {
		pts := byApp[app]
		base := pts[0]
		for _, p := range pts {
			if p.frac > 0 {
				base = p
				break
			}
		}
		if base.frac == 0 {
			base.frac = 0.25
		}
		c, err := replayChain(base, o.seed)
		if err != nil {
			return nil, nil, total, fmt.Errorf("chain replay %s: %w", app, err)
		}
		chains[app] = c
		total.add(c)
		seen := map[string]bool{}
		for _, p := range pts {
			seen[p.id()] = true
			plain, err := runPoint(p, o.seed, nil, true)
			if err != nil {
				return nil, nil, total, fmt.Errorf("replay %s: %w", p.id(), err)
			}
			dec, err := runPoint(p, o.seed, &schemeTimer{}, false)
			if err != nil {
				return nil, nil, total, fmt.Errorf("replay %s: %w", p.id(), err)
			}
			out.attempted++
			a, errA := json.Marshal(plain.met)
			b, errB := json.Marshal(dec.met)
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				out.fail("%s: traced and untraced metrics differ", p.id())
			}
			runs = append(runs, batteryRun{p: p, own: true, plain: plain, dec: dec})
		}
		for _, sys := range append([]string{local, "hopp"}, schemes...) {
			q := base
			q.sys = sys
			if sys == local {
				q.frac = 0
			}
			if seen[q.id()] {
				continue
			}
			seen[q.id()] = true
			dec, err := runPoint(q, o.seed, &schemeTimer{}, false)
			if err != nil {
				return nil, nil, total, fmt.Errorf("replay %s: %w", q.id(), err)
			}
			runs = append(runs, batteryRun{p: q, dec: dec})
		}
	}
	return runs, chains, total, nil
}

// simLayers adds the simulator-side per-layer metrics to v.
func simLayers(o options, own []point, v map[string]float64, out *outcome) error {
	runs, chains, chain, err := battery(o, own, out)
	if err != nil {
		return err
	}
	v["workload.next_ns"] = chain.next.per()
	v["vmm.access_ns"] = chain.vmmAccess.per()
	v["vmm.fault_ns"] = chain.vmmFault.per()
	v["cachesim.access_ns"] = chain.cache.per()
	v["mc.observe_miss_ns"] = chain.mc.per()
	v["hpd.access_ns"] = chain.hpd.per()
	v["rpt.lookup_ns"] = chain.rpt.per()
	v["core.observe_ns"] = chain.core.per()
	v["rdma.page_read_ns"] = chain.rdma.per()
	v["vclock.event_ns"] = chain.clock.per()
	v["hmtt.decode_ns_per_record"] = chain.decode.per()

	// Own points: the workload's access mix, host time, and how much of
	// Run's host time the per-layer costs explain, layer by layer.
	layers := []string{"workload", "vmm.access", "cachesim", "vmm.fault", "rdma", "vclock", "mc", "core", "prefetch"}
	explainedBy := make([]float64, len(layers))
	var acc, dram, minor, major, swapHits, injHits, lateHits, issued, evicted, reads, writes float64
	var runNS, decNS, newNS, buildNS, allocB, explained, queueDelay, transfers float64
	locals := map[string]float64{} // app → local completion time
	for _, r := range runs {
		if r.p.sys == local {
			locals[r.p.app] = float64(r.dec.met.CompletionTime)
		}
	}
	var norm []float64
	for _, r := range runs {
		if !r.own {
			continue
		}
		m := r.plain.met
		acc += float64(m.Accesses)
		dram += float64(m.DRAMHits)
		minor += float64(m.MinorFault)
		major += float64(m.MajorFaults)
		swapHits += float64(m.SwapCacheHits)
		injHits += float64(m.InjectedHits)
		lateHits += float64(m.LateHits)
		issued += float64(m.PrefetchIssued)
		evicted += float64(m.PrefetchEvicted)
		reads += float64(m.RemoteReads)
		writes += float64(m.RemoteWrites)
		runNS += float64(r.plain.exec)
		decNS += float64(r.dec.exec)
		newNS += float64(r.plain.create)
		buildNS += float64(r.plain.build)
		allocB += float64(r.plain.alloc)
		queueDelay += float64(r.plain.fabric.QueueDelaySum)
		transfers += float64(r.plain.fabric.Transfers)
		c := chains[r.p.app]
		parts := []float64{
			c.next.per() * float64(m.Accesses),
			c.vmmAccess.per() * float64(m.Accesses),
			c.cache.per() * float64(m.Accesses),
			c.vmmFault.per() * float64(m.MinorFault+m.MajorFaults+m.SwapCacheHits),
			c.rdma.per() * float64(m.RemoteReads+m.RemoteWrites),
			c.clock.per() * float64(m.PrefetchIssued),
			0, 0, 0,
		}
		if m.HasCore {
			parts[6] = c.mc.per() * float64(m.DRAMHits)
			parts[7] = c.core.per() * float64(m.HotPagesEmitted)
		}
		if t := r.dec.timer; t != nil {
			parts[8] = t.fault.ns + t.feedback.ns
		}
		for i, e := range parts {
			explainedBy[i] += e
			explained += e
		}
		if r.p.frac > 0 && m.CompletionTime > 0 && locals[r.p.app] > 0 {
			norm = append(norm, locals[r.p.app]/float64(m.CompletionTime))
		}
	}
	var breakdown strings.Builder
	for i, l := range layers {
		fmt.Fprintf(&breakdown, " %s %.2f", l, ratio(explainedBy[i], acc))
	}
	o.logf("Run host time %.2f ns/access over %d own points; explained ns/access:%s; residual %.2f",
		ratio(runNS, acc), len(own), breakdown.String(), ratio(runNS-explained, acc))
	nOwn := float64(len(own))
	kilo := func(x float64) float64 { return 1000 * ratio(x, acc) }
	v["workload.build_ms"] = ratio(buildNS, nOwn) / 1e6
	v["sim.new_ms"] = ratio(newNS, nOwn) / 1e6
	v["sim.run_ns_per_access"] = ratio(runNS, acc)
	v["sim.alloc_bytes_per_access"] = ratio(allocB, acc)
	v["sim.explained_frac"] = ratio(explained, runNS)
	v["sim.residual_ns_per_access"] = ratio(runNS-explained, acc)
	v["sim.normperf"] = geomean(norm)
	v["trace.overhead_frac"] = ratio(decNS-runNS, runNS)
	v["cachesim.llc_miss_ratio"] = ratio(dram, acc)
	v["vmm.major_per_kaccess"] = kilo(major)
	v["vmm.minor_per_kaccess"] = kilo(minor)
	v["vmm.swapcache_hit_per_kaccess"] = kilo(swapHits)
	v["vmm.injected_hit_per_kaccess"] = kilo(injHits)
	v["vmm.late_hit_per_kaccess"] = kilo(lateHits)
	v["vmm.reclaim_per_kaccess"] = kilo(writes)
	v["vmm.prefetch_evicted_ratio"] = ratio(evicted, issued)
	v["rdma.transfers_per_kaccess"] = kilo(reads + writes)
	v["rdma.mean_queue_delay_ns"] = ratio(queueDelay, transfers)
	v["vclock.events_per_kaccess"] = kilo(issued)

	// HoPP runs: the MC and core layers' outcomes.
	var hAcc, hDRAM, hHot, hRPT, hMajor, hHits, hInj, hLate, lead, coreHits, coreIssued float64
	var tiers [4]float64
	for _, r := range runs {
		m := r.dec.met
		if r.p.sys != "hopp" || !m.HasCore {
			continue
		}
		hAcc += float64(m.Accesses)
		hDRAM += float64(m.DRAMHits)
		hHot += float64(m.HotPagesEmitted)
		hRPT += m.RPTCacheHitRate * float64(m.HotPagesEmitted)
		hMajor += float64(m.MajorFaults)
		hHits += float64(m.PrefetchHits())
		hInj += float64(m.InjectedHits)
		hLate += float64(m.LateHits)
		for t := range tiers {
			tiers[t] += float64(m.IssuedByTier[t])
			coreIssued += float64(m.IssuedByTier[t])
			coreHits += float64(m.HitsByTier[t])
		}
		var tierHits float64
		for _, h := range m.HitsByTier {
			tierHits += float64(h)
		}
		lead += float64(m.MeanLead) * tierHits
	}
	v["mc.hot_per_kmiss"] = 1000 * ratio(hHot, hDRAM)
	v["rpt.cache_hit_ratio"] = ratio(hRPT, hHot)
	v["core.hot_per_kaccess"] = 1000 * ratio(hHot, hAcc)
	v["core.accuracy"] = ratio(coreHits, coreIssued)
	v["core.coverage"] = ratio(hHits, hMajor+hHits)
	v["core.dram_hit_coverage"] = ratio(hInj, hMajor+hHits)
	v["core.late_ratio"] = ratio(hLate, hHits)
	v["core.mean_lead_us"] = ratio(lead, coreHits) / float64(vclock.Microsecond)
	v["core.issued_per_kaccess.ssp"] = 1000 * ratio(tiers[core.TierSSP], hAcc)
	v["core.issued_per_kaccess.lsp"] = 1000 * ratio(tiers[core.TierLSP], hAcc)
	v["core.issued_per_kaccess.rsp"] = 1000 * ratio(tiers[core.TierRSP], hAcc)

	// Registry schemes: the decorator's costs and each scheme's outcomes.
	for _, s := range schemes {
		var fault, feedback cost
		var sMajor, sIssued, sHits float64
		for _, r := range runs {
			if r.p.sys != s || r.dec.timer == nil {
				continue
			}
			m := r.dec.met
			fault.add(r.dec.timer.fault)
			feedback.add(r.dec.timer.feedback)
			sMajor += float64(m.MajorFaults)
			sIssued += float64(m.PrefetchIssued)
			sHits += float64(m.PrefetchHits())
		}
		v["prefetch."+s+".on_fault_ns"] = fault.per()
		v["prefetch."+s+".feedback_ns"] = feedback.per()
		v["prefetch."+s+".issued_per_fault"] = ratio(sIssued, fault.calls)
		v["prefetch."+s+".accuracy"] = ratio(sHits, sIssued)
		v["prefetch."+s+".coverage"] = ratio(sHits, sMajor+sHits)
	}
	return nil
}
