package server

import "repro/internal/cpu"

// SetShardObserver installs fn as the pipeline Observer of every parallel
// ingest, so a test can fault one shard mid-request. Call it before the
// server handles its first request.
func (s *Server) SetShardObserver(fn func(worker int, ev cpu.Event)) { s.observe = fn }
