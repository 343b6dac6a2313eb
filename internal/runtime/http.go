// The opt-in observability HTTP endpoint: Prometheus text exposition,
// a JSON variant of the same registry gather, the WriteStatus text
// view, and a JSON health view. All four derive from the same
// Snapshot/Gather pair, so a scrape, a poll, and a status dump can
// never disagree.
//
// The endpoint is off by default. Options.MetricsAddr enables it
// (":0" binds an ephemeral port, reported by Runtime.MetricsAddr); the
// listener is opened inside Start so a bad address fails the start
// instead of dying silently on a background goroutine.
package runtime

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// startMetricsServerLocked opens the listener on Options.MetricsAddr
// and spawns the HTTP server goroutine. Called from Start with rt.mu
// held; the server goroutine joins rt.wg so Wait observes its exit.
func (rt *Runtime) startMetricsServerLocked() error {
	ln, err := net.Listen("tcp", rt.opts.MetricsAddr)
	if err != nil {
		return fmt.Errorf("runtime: metrics listen %s: %w", rt.opts.MetricsAddr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", rt.handleProm)
	mux.HandleFunc("/metrics.json", rt.handleMetricsJSON)
	mux.HandleFunc("/status", rt.handleStatus)
	mux.HandleFunc("/health", rt.handleHealth)
	srv := &http.Server{Handler: mux}
	rt.httpLn = ln
	rt.httpSrv = srv
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		srv.Serve(ln) // returns once Stop closes the server
	}()
	return nil
}

// MetricsAddr returns the bound address of the observability HTTP
// listener, or "" when the endpoint is disabled (or before Start).
// With Options.MetricsAddr ":0" this is how tests and operators learn
// the ephemeral port.
func (rt *Runtime) MetricsAddr() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.httpLn == nil {
		return ""
	}
	return rt.httpLn.Addr().String()
}

// handleProm serves the Prometheus text exposition format. The
// registry's gather takes a fresh Snapshot first (the hook Start
// registers), so gauge families are current.
func (rt *Runtime) handleProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.opts.Metrics.WriteProm(w)
}

// handleMetricsJSON serves the same registry gather as JSON.
func (rt *Runtime) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	rt.opts.Metrics.WriteJSON(w)
}

// handleStatus serves the WriteStatus text view.
func (rt *Runtime) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rt.WriteStatus(w)
}

// threadHealthJSON is the wire form of one ThreadHealth entry.
type threadHealthJSON struct {
	Name                string  `json:"name"`
	State               string  `json:"state"`
	Restarts            int     `json:"restarts"`
	Stalled             bool    `json:"stalled"`
	HeartbeatAgeSeconds float64 `json:"heartbeat_age_seconds"`
	LastFailure         string  `json:"last_failure,omitempty"`
}

// handleHealth serves the supervision health snapshot as JSON.
func (rt *Runtime) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := rt.Health()
	out := struct {
		Healthy bool               `json:"healthy"`
		Threads []threadHealthJSON `json:"threads"`
	}{Healthy: h.Healthy(), Threads: make([]threadHealthJSON, 0, len(h.Threads))}
	for _, th := range h.Threads {
		tj := threadHealthJSON{
			Name:                th.Name,
			State:               th.State.String(),
			Restarts:            th.Restarts,
			Stalled:             th.Stalled,
			HeartbeatAgeSeconds: th.HeartbeatAge.Seconds(),
		}
		if th.LastFailure != nil {
			tj.LastFailure = th.LastFailure.Error()
		}
		out.Threads = append(out.Threads, tj)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// metricsShutdownGrace bounds how long closeMetricsServer waits for
// in-flight scrapes before severing their connections.
const metricsShutdownGrace = 2 * time.Second

// closeMetricsServer tears the HTTP endpoint down (idempotent; called
// from Stop and Drain). Graceful first: http.Server.Shutdown stops the
// listener and lets in-flight /metrics scrapes run to completion — a
// Prometheus scrape racing a Stop or Drain sees a complete exposition,
// not a severed connection. Connections that outlive the grace period
// are closed hard so shutdown never hangs on a stuck client.
func (rt *Runtime) closeMetricsServer() {
	rt.mu.Lock()
	srv := rt.httpSrv
	rt.httpSrv = nil
	rt.mu.Unlock()
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), metricsShutdownGrace)
	defer cancel()
	if srv.Shutdown(ctx) != nil {
		srv.Close()
	}
}
