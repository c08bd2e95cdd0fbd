// Server is the embeddable live-telemetry HTTP surface: Prometheus
// metrics, sampler time series, flight/span traces, sweep progress
// and pprof, served from snapshots the simulation side publishes at
// sample boundaries. Engines stay goroutine-confined — no handler
// ever touches an engine, a registry or an observer; the only shared
// state is the published copy under the server's lock. This is the
// first HTTP surface on the road to aqtsimd and dispatcher worker
// status streaming.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// TelemetryState is one published snapshot of everything the server
// exposes. All fields are optional; publishers fill what they have.
type TelemetryState struct {
	// Now is the engine step the snapshot was taken at.
	Now int64
	// Metrics is a Registry snapshot (served at /metrics).
	Metrics Snapshot
	// Series are Sampler time series (served at /series).
	Series []Series
	// Spans are completed SpanTracer spans (served at /trace).
	Spans []Span
	// Flight is the flight-recorder tail (served at /trace).
	Flight []Event
}

// Server serves published telemetry snapshots over HTTP. Create with
// NewServer, wire a publisher (e.g. Sampler.OnSample →
// PublishTelemetry), then either mount Handler on a listener of your
// choice or call Start.
//
// Publishing reuses the previous snapshot's buffers, so a steady-state
// publish allocates nothing; handlers render under a read lock, so a
// slow scrape delays the next publish, never corrupts it.
type Server struct {
	mu    sync.RWMutex
	state TelemetryState

	pmu      sync.Mutex
	progress SweepProgress
	hasProg  bool

	mux  *http.ServeMux
	hsrv *http.Server
}

// NewServer returns a server with all endpoints mounted:
// /metrics, /series, /trace, /healthz, /progress, /debug/pprof/*.
func NewServer() *Server {
	s := &Server{mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/series", s.handleSeries)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/progress", s.handleProgress)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's HTTP handler (for httptest or custom
// listeners).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. "127.0.0.1:0") and serves in a
// background goroutine, returning the bound address. Use Close to
// stop.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.hsrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.hsrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops a server started with Start (no-op otherwise).
func (s *Server) Close() error {
	if s.hsrv == nil {
		return nil
	}
	return s.hsrv.Close()
}

// PublishTelemetry captures the current state of the given telemetry
// sources (each may be nil) into the served snapshot. Call it from the
// simulation goroutine — the natural wiring is sampler.OnSample — so
// readers always see a sample-boundary-consistent view. Buffers from
// the previous snapshot are reused: once they have grown to their
// steady-state sizes, publishing allocates nothing, keeping the gated
// zero-alloc step path intact with a server attached.
func (s *Server) PublishTelemetry(now int64, reg *Registry, sam *Sampler, sp *SpanTracer, fr *FlightRecorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state.Now = now
	if reg != nil {
		reg.SnapshotInto(&s.state.Metrics)
	}
	if sam != nil {
		sam.SeriesInto(&s.state.Series)
	}
	if sp != nil {
		sp.DoneInto(&s.state.Spans)
	}
	if fr != nil {
		fr.EventsInto(&s.state.Flight)
	}
}

// PublishSnapshot replaces the served metrics snapshot — the
// sweep-side publisher for harnesses that aggregate Registry
// snapshots instead of running a Sampler (`aqt experiments`).
func (s *Server) PublishSnapshot(snap Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state.Metrics = snap
}

// OnProgress implements ProgressFunc: hand it to a sweep layer to
// serve live progress at /progress. Progress has its own lock so a
// sweep's worker-completion path never contends with a publish.
func (s *Server) OnProgress(p SweepProgress) {
	s.pmu.Lock()
	s.progress = p
	s.hasProg = true
	s.pmu.Unlock()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteProm(w, s.state.Metrics)
}

func (s *Server) handleSeries(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	_ = WriteSeriesJSONL(w, s.state.Series)
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	if err := DumpEventsJSONL(w, s.state.Flight); err != nil {
		return
	}
	for i := range s.state.Spans {
		line, err := json.Marshal(s.state.Spans[i])
		if err != nil {
			return
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return
		}
	}
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	s.pmu.Lock()
	p, ok := s.progress, s.hasProg
	s.pmu.Unlock()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := struct {
		Done        int    `json:"done"`
		Total       int    `json:"total"`
		InFlight    int    `json:"in_flight"`
		ElapsedMS   int64  `json:"elapsed_ms"`
		ETAMS       int64  `json:"eta_ms"`
		SlowestMS   int64  `json:"slowest_probe_ms"`
		HasProgress bool   `json:"has_progress"`
		HumanForm   string `json:"text,omitempty"`
	}{
		Done: p.Done, Total: p.Total, InFlight: p.InFlight,
		ElapsedMS: p.Elapsed.Milliseconds(), ETAMS: p.ETA().Milliseconds(),
		SlowestMS: p.SlowestProbe.Milliseconds(), HasProgress: ok,
	}
	if ok {
		enc.HumanForm = p.String()
	}
	_ = json.NewEncoder(w).Encode(enc)
}
