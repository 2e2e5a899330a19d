package health

import (
	"encoding/json"
	"io"
	"net/http"

	"press/internal/obs"
)

func writeJSONIndent(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// RegisterRoutes adds the channel-health endpoints to a telemetry
// server:
//
//	GET /alerts       rule states and recent transitions
//	GET /health.json  the KPI time series and SNR spectrogram
//	GET /dashboard    the embedded live dashboard
func RegisterRoutes(srv *obs.Server, mon *Monitor) {
	srv.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		obs.ServeJSON(w, r, func(out io.Writer) error {
			return writeJSONIndent(out, mon.Alerts())
		})
	})
	srv.HandleFunc("/health.json", func(w http.ResponseWriter, r *http.Request) {
		obs.ServeJSON(w, r, func(out io.Writer) error {
			return writeJSONIndent(out, mon.Snapshot())
		})
	})
	srv.HandleFunc("/dashboard", DashboardHandler())
}
