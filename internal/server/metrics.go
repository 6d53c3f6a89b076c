package server

import "repro/internal/metrics"

// serverMetrics is the serving layer's slice of the metrics registry.
// Global series cover the session manager (residency, lifecycle churn,
// admission); per-tenant Vec series break ingestion volume, verdicts, and
// backpressure out by tenant ID on the same /metrics endpoint the rest of
// the stack already exposes. All fields are nil-receiver-safe, so a
// Server built without a registry pays one predicted branch per site.
type serverMetrics struct {
	sessionsLive    *metrics.Gauge   // sessions resident in memory
	sessionsSpilled *metrics.Gauge   // sessions dehydrated to disk
	liveBytes       *metrics.Gauge   // estimated resident tracker bytes
	sessionsCreated *metrics.Counter // first-contact session creations
	evictions       *metrics.Counter // budget-driven dehydrations
	dehydrates      *metrics.Counter // spill writes (eviction or shutdown)
	hydrates        *metrics.Counter // spill reads back into memory
	finalized       *metrics.Counter // DELETE-finalized sessions
	spillErrors     *metrics.Counter // failed spill writes (session stayed live)
	quarantined     *metrics.Counter // unreadable spill files set aside at startup
	streamsInFlight *metrics.Gauge   // ingest streams currently admitted
	streamsRejected *metrics.Counter // 429s from the global stream cap
	ingestErrors    *metrics.Counter // ingest requests that ended in an error class
	ingestBytes     *metrics.Counter // wire bytes drawn from ingest request bodies
	ingestSeconds   *metrics.Histogram

	parallelIngests    *metrics.Counter // requests committed through the sharded pipeline
	workersLoaned      *metrics.Gauge   // pipeline workers currently loaned to sessions
	peekHits           *metrics.Counter // spilled-session queries served from the snapshot cache
	peekMisses         *metrics.Counter // spilled-session queries that decoded a snapshot
	spillBatches       *metrics.Counter // grouped eviction write bursts
	spillBatchSessions *metrics.Counter // sessions dehydrated across those bursts

	tenantBytes    *metrics.CounterVec // bytes ingested, by tenant
	tenantEvents   *metrics.CounterVec // events applied, by tenant
	tenantVerdicts *metrics.CounterVec // sink verdicts recorded, by tenant
	tenantStalls   *metrics.CounterVec // per-tenant 429 backpressure stalls
}

func newServerMetrics(r *metrics.Registry) *serverMetrics {
	m := &serverMetrics{}
	if r == nil {
		return m
	}
	m.sessionsLive = r.Gauge("pift_server_sessions_live", "tracker sessions resident in memory")
	m.sessionsSpilled = r.Gauge("pift_server_sessions_spilled", "tracker sessions dehydrated to the spill directory")
	m.liveBytes = r.Gauge("pift_server_live_bytes", "estimated resident bytes of live tracker state")
	m.sessionsCreated = r.Counter("pift_server_sessions_created_total", "sessions created on first contact")
	m.evictions = r.Counter("pift_server_sessions_evicted_total", "sessions dehydrated by the LRU memory budget")
	m.dehydrates = r.Counter("pift_server_dehydrates_total", "session snapshots written to the spill directory")
	m.hydrates = r.Counter("pift_server_hydrates_total", "session snapshots restored from the spill directory")
	m.finalized = r.Counter("pift_server_sessions_finalized_total", "sessions finalized by DELETE")
	m.spillErrors = r.Counter("pift_server_spill_errors_total", "failed spill writes (victim kept live)")
	m.quarantined = r.Counter("pift_server_spill_quarantined_total", "unreadable spill files renamed to *.corrupt at startup")
	m.streamsInFlight = r.Gauge("pift_server_streams_in_flight", "ingest streams currently admitted")
	m.streamsRejected = r.Counter("pift_server_streams_rejected_total", "ingest streams rejected 429 by the global concurrency cap")
	m.ingestErrors = r.Counter("pift_server_ingest_errors_total", "ingest requests that ended in an error class")
	m.ingestBytes = r.Counter("pift_server_ingest_bytes_total", "wire bytes drawn from ingest request bodies, all tenants")
	m.ingestSeconds = r.Histogram("pift_server_ingest_seconds", "wall time of one ingest request", metrics.LatencyBuckets)

	m.parallelIngests = r.Counter("pift_server_parallel_ingests_total", "ingest requests committed through the sharded pipeline")
	m.workersLoaned = r.Gauge("pift_server_ingest_workers_loaned", "pipeline workers currently loaned to parallel ingests")
	m.peekHits = r.Counter("pift_server_peek_cache_hits_total", "spilled-session queries served from the snapshot cache")
	m.peekMisses = r.Counter("pift_server_peek_cache_misses_total", "spilled-session queries that decoded a spill snapshot")
	m.spillBatches = r.Counter("pift_server_spill_batches_total", "grouped eviction write bursts")
	m.spillBatchSessions = r.Counter("pift_server_spill_batch_sessions_total", "sessions dehydrated across grouped eviction bursts")

	m.tenantBytes = r.CounterVec("pift_server_tenant_bytes_total", "trace bytes ingested per tenant", "tenant")
	m.tenantEvents = r.CounterVec("pift_server_tenant_events_total", "trace events applied per tenant", "tenant")
	m.tenantVerdicts = r.CounterVec("pift_server_tenant_verdicts_total", "sink verdicts recorded per tenant", "tenant")
	m.tenantStalls = r.CounterVec("pift_server_tenant_stalls_total", "per-tenant backpressure rejections (429)", "tenant")
	return m
}
