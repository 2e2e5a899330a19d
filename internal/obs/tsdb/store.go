package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"press/internal/obs"
	"press/internal/obs/export"
	"press/internal/obs/names"
)

// Self-telemetry metric names (spellings owned by internal/obs/names):
// the store observes itself through the registry it stores.
const (
	CounterBatches          = names.TSDBBatches
	CounterSamples          = names.TSDBSamples
	CounterDropped          = names.TSDBDropped
	CounterSeriesRejected   = names.TSDBSeriesRejected
	CounterCompactions      = names.TSDBCompactions
	CounterSessionsReleased = names.TSDBSessionsReleased
	CounterCorruptFrames    = names.TSDBCorruptFrames
	GaugeSeries             = names.TSDBSeries
	GaugeDiskBytes          = names.TSDBDiskBytes
	GaugeSegments           = names.TSDBSegments
	HistCompactionSeconds   = names.TSDBCompactionSecs
)

// Defaults for Options.
const (
	DefaultRetentionRaw = 30 * time.Minute
	DefaultRetention10s = 6 * time.Hour
	DefaultRetention1m  = 24 * time.Hour

	DefaultSegmentBytes        = 4 << 20
	DefaultQueueCap            = 256
	DefaultMaxSeriesPerSession = 1024
	DefaultFlushInterval       = time.Second
	DefaultCompactInterval     = 5 * time.Second
	DefaultFlushTimeout        = 2 * time.Second

	// flushHighWater forces an inline flush when the group-commit
	// buffer outgrows it, bounding memory between flush ticks.
	flushHighWater = 256 << 10

	// compactGraceMs delays window compaction so a tick's stragglers
	// (batches queued but not yet applied) still land in the raw tier
	// before their window is folded.
	compactGraceMs = 2_000

	// maxPendingPoints bounds each series' per-tier compaction buffer;
	// beyond it the oldest points are compacted anyway next round, so
	// this only matters if the maintenance loop is starved.
	maxPendingPoints = 8192
)

// Options tunes a Store.
type Options struct {
	// Dir is the store root; tier subdirectories are created inside.
	Dir string
	// Reg receives the store's obs_tsdb_* self-telemetry (nil: none).
	Reg *obs.Registry
	// RetentionRaw/Retention10s/Retention1m bound each tier's history
	// (≤ 0: defaults 30m / 6h / 24h).
	RetentionRaw time.Duration
	Retention10s time.Duration
	Retention1m  time.Duration
	// SegmentBytes rotates segments past this size (≤ 0: 4 MiB).
	SegmentBytes int64
	// QueueCap bounds the ingest queue in batches (≤ 0: 256).
	QueueCap int
	// MaxSeriesPerSession caps series cardinality per session; samples
	// for series beyond it are rejected and counted (≤ 0: 1024).
	MaxSeriesPerSession int
	// FlushInterval is the group-commit cadence (≤ 0: 1s). Crash loss
	// is bounded by one interval of unflushed frames.
	FlushInterval time.Duration
	// CompactInterval is the downsampling/retention cadence (≤ 0: 5s).
	CompactInterval time.Duration
	// FlushTimeout bounds Close's final queue drain (≤ 0: 2s).
	FlushTimeout time.Duration
	// ReadOnly opens the store for queries only: no writers, no
	// background loops, no lock against a live writer (segment decode
	// tolerates a concurrently appending process).
	ReadOnly bool
}

func (o *Options) defaults() {
	if o.RetentionRaw <= 0 {
		o.RetentionRaw = DefaultRetentionRaw
	}
	if o.Retention10s <= 0 {
		o.Retention10s = DefaultRetention10s
	}
	if o.Retention1m <= 0 {
		o.Retention1m = DefaultRetention1m
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.QueueCap <= 0 {
		o.QueueCap = DefaultQueueCap
	}
	if o.MaxSeriesPerSession <= 0 {
		o.MaxSeriesPerSession = DefaultMaxSeriesPerSession
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = DefaultFlushInterval
	}
	if o.CompactInterval <= 0 {
		o.CompactInterval = DefaultCompactInterval
	}
	if o.FlushTimeout <= 0 {
		o.FlushTimeout = DefaultFlushTimeout
	}
}

// retention returns the per-tier retention windows.
func (o *Options) retention() [numTiers]time.Duration {
	return [numTiers]time.Duration{o.RetentionRaw, o.Retention10s, o.Retention1m}
}

// point is one sample: unix-ms timestamp and value.
type point struct {
	t int64
	v float64
}

// series is one live series' ingest-side state. Historical data lives
// in the segments; this exists to re-accumulate counter deltas and to
// stage points between compaction rounds.
type series struct {
	id   uint32
	kind byte
	cum  float64
	// pend[tierRaw] holds raw points awaiting 10s compaction;
	// pend[tier10s] holds 10s points awaiting 1m compaction.
	pend [2][]point
}

// Store is the embedded time-series database. All methods are safe for
// concurrent use and on a nil receiver (the disabled state).
type Store struct {
	opt Options

	q          chan export.Batch
	ingestLife obs.Lifecycle
	maintLife  obs.Lifecycle

	mu         sync.Mutex
	tiers      [numTiers]*tierState
	series     map[seriesKey]*series
	perSession map[string]int
	nextID     uint32
	wm         [numTiers]int64 // wm[tier10s], wm[tier1m]: compacted-up-to (unix ms)
	closed     bool
	openStats  DecodeStats

	batches  atomic.Int64
	samples  atomic.Int64
	dropped  atomic.Int64
	rejected atomic.Int64
	released atomic.Int64

	mBatches, mSamples, mDropped   *obs.Counter
	mRejected, mCompact, mReleased *obs.Counter
	mCorrupt                       *obs.Counter
	gSeries, gDiskBytes, gSegments *obs.Gauge
	hCompact                       *obs.Histogram
}

// Open opens (creating if needed) the store rooted at opt.Dir, replays
// the segment index, restores counter accumulations and compaction
// watermarks, and — unless ReadOnly — starts the ingest and
// maintenance loops. Decode problems in existing segments are counted
// (openStats, obs_tsdb_corrupt_frames_total), never fatal: the store
// is most needed right after the process died badly.
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("tsdb: empty dir")
	}
	opt.defaults()
	s := &Store{
		opt:        opt,
		q:          make(chan export.Batch, opt.QueueCap),
		series:     map[seriesKey]*series{},
		perSession: map[string]int{},
	}
	if reg := opt.Reg; reg != nil && !opt.ReadOnly {
		s.mBatches = reg.Counter(CounterBatches)
		s.mSamples = reg.Counter(CounterSamples)
		s.mDropped = reg.Counter(CounterDropped)
		s.mRejected = reg.Counter(CounterSeriesRejected)
		s.mCompact = reg.Counter(CounterCompactions)
		s.mReleased = reg.Counter(CounterSessionsReleased)
		s.mCorrupt = reg.Counter(CounterCorruptFrames)
		s.gSeries = reg.Gauge(GaugeSeries)
		s.gDiskBytes = reg.Gauge(GaugeDiskBytes)
		s.gSegments = reg.Gauge(GaugeSegments)
		s.hCompact = reg.Histogram(HistCompactionSeconds,
			[]float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1})
	}
	for t := 0; t < numTiers; t++ {
		dir := filepath.Join(opt.Dir, tierNames[t])
		if !opt.ReadOnly {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		s.tiers[t] = &tierState{dir: dir}
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	s.mCorrupt.Add(int64(s.openStats.Corrupt))
	if opt.ReadOnly {
		return s, nil
	}
	now := time.Now()
	for t := 0; t < numTiers; t++ {
		if err := s.tiers[t].openWriter(now); err != nil {
			return nil, err
		}
	}
	s.updateDiskGauges()
	s.ingestLife.Start(nil, s.ingestLoop)
	s.maintLife.Start(nil, s.maintLoop)
	return s, nil
}

// replay scans every tier's segments coarse-to-fine, building the
// sealed index ([minT,maxT] per segment), restoring compaction
// watermarks, refilling the not-yet-compacted staging buffers, and
// re-seeding counter accumulations from each counter series' newest
// surviving sample.
func (s *Store) replay() error {
	type lastVal struct {
		t int64
		v float64
	}
	last := map[seriesKey]lastVal{}
	// 1m first, then 10s, then raw: each tier's staging filter needs
	// the watermark of the tier above it.
	for _, t := range []int{tier1m, tier10s, tierRaw} {
		ts := s.tiers[t]
		segs, err := listSegments(ts.dir)
		if err != nil {
			return err
		}
		for i := range segs {
			seg := &segs[i]
			wm, stats, err := scanSegment(seg.path, func(key seriesKey, kind byte, unixMs int64, v float64) {
				seg.note2(unixMs)
				if kind == seriesCounter {
					if lv, ok := last[key]; !ok || unixMs >= lv.t {
						last[key] = lastVal{unixMs, v}
					}
				}
				switch t {
				case tierRaw:
					if unixMs > s.wm[tier10s] {
						s.stage(key, kind, tierRaw, point{unixMs, v})
					}
				case tier10s:
					if unixMs > s.wm[tier1m] {
						s.stage(key, kind, tier10s, point{unixMs, v})
					}
				}
			})
			if err != nil {
				return err
			}
			s.openStats.Add(stats)
			if wm > s.wm[t] {
				s.wm[t] = wm
			}
		}
		ts.sealed = segs
	}
	// Staged points replayed out of segment order would confuse the
	// window folds; normalize.
	for _, sr := range s.series {
		for i := range sr.pend {
			sortPoints(sr.pend[i])
		}
	}
	for key, lv := range last {
		if sr := s.series[key]; sr != nil {
			sr.cum = lv.v
		} else if sr := s.getSeriesLocked(key, seriesCounter); sr != nil {
			sr.cum = lv.v
		}
	}
	return nil
}

// note2 folds a sample timestamp into a segInfo's [minT,maxT] during
// replay (the writer-side equivalent is tierState.note).
func (si *segInfo) note2(unixMs int64) {
	if si.minT == 0 || unixMs < si.minT {
		si.minT = unixMs
	}
	if unixMs > si.maxT {
		si.maxT = unixMs
	}
}

// stage adds a replayed point to the series' pending compaction buffer.
func (s *Store) stage(key seriesKey, kind byte, tier int, p point) {
	sr := s.series[key]
	if sr == nil {
		sr = s.getSeriesLocked(key, kind)
		if sr == nil {
			return
		}
	}
	if len(sr.pend[tier]) < maxPendingPoints {
		sr.pend[tier] = append(sr.pend[tier], p)
	}
}

func sortPoints(pts []point) {
	sort.Slice(pts, func(i, j int) bool { return pts[i].t < pts[j].t })
}

// Offer hands one delta batch to the store without blocking — the
// export.Tap contract. A full queue rejects the batch (counted in
// obs_tsdb_dropped_total); the exporter then keeps its tap baseline,
// so the deltas fold into the next offered batch and totals still
// reconcile. A nil or closed store rejects everything.
func (s *Store) Offer(b export.Batch) bool {
	if s == nil {
		return false
	}
	if s.ingestLife.Stopped() {
		// Shutdown tail delivery: the loops are gone, apply inline.
		s.applyBatch(b)
		return true
	}
	select {
	case s.q <- b:
		return true
	default:
		s.dropped.Add(1)
		s.mDropped.Inc()
		return false
	}
}

func (s *Store) ingestLoop(stop <-chan struct{}) {
	for {
		select {
		case b := <-s.q:
			s.applyBatch(b)
		case <-stop:
			// Drain what is queued, bounded: shutdown must not hang on
			// a pathological backlog.
			deadline := time.After(s.opt.FlushTimeout)
			for {
				select {
				case b := <-s.q:
					s.applyBatch(b)
				case <-deadline:
					return
				default:
					return
				}
			}
		}
	}
}

func (s *Store) maintLoop(stop <-chan struct{}) {
	t := time.NewTicker(s.opt.FlushInterval)
	defer t.Stop()
	lastCompact := time.Now()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			s.mu.Lock()
			for i := 0; i < numTiers; i++ {
				s.tiers[i].flush()
			}
			if now.Sub(lastCompact) >= s.opt.CompactInterval {
				lastCompact = now
				s.compactLocked(now)
				s.retainLocked(now)
			}
			s.updateDiskGauges()
			s.mu.Unlock()
		}
	}
}

// applyBatch turns one delta batch into raw-tier samples: counters (and
// histogram/span aggregates) re-accumulated into cumulative series,
// gauges as latest values — one block frame per batch.
func (s *Store) applyBatch(b export.Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || b.UnixMs <= 0 {
		return
	}
	raw := s.tiers[tierRaw]
	var block []blockSample
	add := func(name string, kind byte, v float64, isDelta bool, delta float64) {
		sr := s.getSeriesLocked(seriesKey{b.Session, name}, kind)
		if sr == nil {
			return
		}
		if isDelta {
			sr.cum += delta
			v = sr.cum
		}
		if raw.f != nil {
			if !raw.declared[sr.id] {
				raw.declared[sr.id] = true
				raw.buf = appendFrame(raw.buf, kindSeries,
					encodeSeriesDecl(nil, sr.id, sr.kind, seriesKey{b.Session, name}))
			}
			block = append(block, blockSample{sr.id, v})
		}
		if len(sr.pend[tierRaw]) < maxPendingPoints {
			sr.pend[tierRaw] = append(sr.pend[tierRaw], point{b.UnixMs, v})
		}
	}
	for name, d := range b.Counters {
		add(name, seriesCounter, 0, true, float64(d))
	}
	for name, v := range b.Gauges {
		add(name, seriesGauge, v, false, 0)
	}
	for name, h := range b.Histograms {
		add(name+"_count", seriesCounter, 0, true, float64(h.Count))
		add(name+"_sum", seriesCounter, 0, true, h.Sum)
	}
	for name, sp := range b.Spans {
		add(name+"_count", seriesCounter, 0, true, float64(sp.Count))
		add(name+"_seconds_total", seriesCounter, 0, true, sp.TotalSeconds)
	}
	if len(block) == 0 {
		return
	}
	raw.buf = appendFrame(raw.buf, kindBlock, encodeBlock(nil, b.UnixMs, block))
	raw.note(b.UnixMs)
	s.batches.Add(1)
	s.samples.Add(int64(len(block)))
	s.mBatches.Inc()
	s.mSamples.Add(int64(len(block)))
	if len(raw.buf) >= flushHighWater {
		raw.flush()
	}
	raw.rotateIfNeeded(time.Now(), s.opt.SegmentBytes, s.segMaxAge(tierRaw))
}

// segMaxAge is the age-based rotation bound: an eighth of the tier's
// retention (clamped to [1m, 1h]), so retention — which deletes whole
// sealed segments — tracks its window with bounded slop.
func (s *Store) segMaxAge(tier int) time.Duration {
	age := s.opt.retention()[tier] / 8
	if age < time.Minute {
		age = time.Minute
	}
	if age > time.Hour {
		age = time.Hour
	}
	return age
}

// getSeriesLocked finds or creates a series, enforcing the per-session
// cardinality budget. Caller holds mu.
func (s *Store) getSeriesLocked(key seriesKey, kind byte) *series {
	if sr := s.series[key]; sr != nil {
		return sr
	}
	if s.perSession[key.session] >= s.opt.MaxSeriesPerSession {
		s.rejected.Add(1)
		s.mRejected.Inc()
		return nil
	}
	s.nextID++
	sr := &series{id: s.nextID, kind: kind}
	s.series[key] = sr
	s.perSession[key.session]++
	s.gSeries.Set(float64(len(s.series)))
	return sr
}

// ReleaseSession drops a session's live ingest state — its series
// budget, counter accumulations, and staged points — and counts the
// release. The scope layer calls this when a session scope is removed
// or LRU-evicted; the session's history stays on disk until retention
// ages it out. Returns the number of series released. Nil-safe.
func (s *Store) ReleaseSession(id string) int {
	if s == nil || id == "" {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for key := range s.series {
		if key.session == id {
			delete(s.series, key)
			n++
		}
	}
	if n > 0 {
		delete(s.perSession, id)
		s.released.Add(1)
		s.mReleased.Inc()
		s.gSeries.Set(float64(len(s.series)))
	}
	return n
}

func (s *Store) updateDiskGauges() {
	var bytes int64
	segs := 0
	for i := 0; i < numTiers; i++ {
		bytes += s.tiers[i].diskBytes() + int64(len(s.tiers[i].buf))
		segs += s.tiers[i].segments()
	}
	s.gDiskBytes.Set(float64(bytes))
	s.gSegments.Set(float64(segs))
}

// Close stops ingest (draining the queue within FlushTimeout), stops
// maintenance, then flushes, fsyncs, and seals every tier. Idempotent;
// nil-safe.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.ingestLife.Stop()
	s.maintLife.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	for i := 0; i < numTiers; i++ {
		if serr := s.tiers[i].seal(); err == nil {
			err = serr
		}
	}
	s.updateDiskGauges()
	return err
}

// Dir returns the store root ("" on a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.opt.Dir
}

// TierState is one tier's /tsdbz row.
type TierState struct {
	Tier        string  `json:"tier"`
	Segments    int     `json:"segments"`
	DiskBytes   int64   `json:"disk_bytes"`
	RetentionS  float64 `json:"retention_s"`
	WatermarkMs int64   `json:"watermark_unix_ms,omitempty"`
	MinMs       int64   `json:"min_unix_ms,omitempty"`
	MaxMs       int64   `json:"max_unix_ms,omitempty"`
}

// State is the /tsdbz document.
type State struct {
	Enabled   bool        `json:"enabled"`
	Dir       string      `json:"dir,omitempty"`
	ReadOnly  bool        `json:"read_only,omitempty"`
	Series    int         `json:"series"`
	Sessions  int         `json:"sessions"`
	QueueLen  int         `json:"queue_len"`
	QueueCap  int         `json:"queue_cap"`
	Batches   int64       `json:"batches"`
	Samples   int64       `json:"samples"`
	Dropped   int64       `json:"dropped"`
	Rejected  int64       `json:"rejected_series_samples,omitempty"`
	Released  int64       `json:"sessions_released,omitempty"`
	Tiers     []TierState `json:"tiers"`
	OpenStats DecodeStats `json:"open_decode,omitempty"`
}

// State snapshots the store. A nil store reports Enabled false.
func (s *Store) State() State {
	if s == nil {
		return State{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{
		Enabled:   true,
		Dir:       s.opt.Dir,
		ReadOnly:  s.opt.ReadOnly,
		Series:    len(s.series),
		Sessions:  len(s.perSession),
		QueueLen:  len(s.q),
		QueueCap:  s.opt.QueueCap,
		Batches:   s.batches.Load(),
		Samples:   s.samples.Load(),
		Dropped:   s.dropped.Load(),
		Rejected:  s.rejected.Load(),
		Released:  s.released.Load(),
		OpenStats: s.openStats,
	}
	ret := s.opt.retention()
	for i := 0; i < numTiers; i++ {
		ts := s.tiers[i]
		row := TierState{
			Tier:       tierNames[i],
			Segments:   ts.segments(),
			DiskBytes:  ts.diskBytes() + int64(len(ts.buf)),
			RetentionS: ret[i].Seconds(),
		}
		if i > 0 {
			row.WatermarkMs = s.wm[i]
		}
		for _, seg := range ts.sealed {
			if seg.minT != 0 && (row.MinMs == 0 || seg.minT < row.MinMs) {
				row.MinMs = seg.minT
			}
			if seg.maxT > row.MaxMs {
				row.MaxMs = seg.maxT
			}
		}
		if ts.minT != 0 && (row.MinMs == 0 || ts.minT < row.MinMs) {
			row.MinMs = ts.minT
		}
		if ts.maxT > row.MaxMs {
			row.MaxMs = ts.maxT
		}
		st.Tiers = append(st.Tiers, row)
	}
	return st
}

// Extent reports the store's overall data range in unix ms (0,0 when
// empty) — what `pressctl query` defaults its range to.
func (s *Store) Extent() (minMs, maxMs int64) {
	st := s.State()
	for _, t := range st.Tiers {
		if t.MinMs != 0 && (minMs == 0 || t.MinMs < minMs) {
			minMs = t.MinMs
		}
		if t.MaxMs > maxMs {
			maxMs = t.MaxMs
		}
	}
	return minMs, maxMs
}

// HealthzLine renders the one-line /healthz status. Empty on nil.
func (s *Store) HealthzLine() string {
	if s == nil {
		return ""
	}
	st := s.State()
	var bytes int64
	for _, t := range st.Tiers {
		bytes += t.DiskBytes
	}
	return fmt.Sprintf("tsdb: %d series, %d sessions, %.1f MiB, queue %d/%d, dropped %d",
		st.Series, st.Sessions, float64(bytes)/(1<<20), st.QueueLen, st.QueueCap, st.Dropped)
}
