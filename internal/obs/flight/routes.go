package flight

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"press/internal/obs"
)

// NewRunID returns a sortable, filesystem-safe run identifier:
// UTC timestamp plus a random suffix ("20260806T142530-9f3a2c").
func NewRunID() string {
	var b [3]byte
	_, _ = rand.Read(b[:])
	return time.Now().UTC().Format("20060102T150405") + "-" + hex.EncodeToString(b[:])
}

// NewManifest starts a manifest for the given producer, stamped with
// the current time and the binary's build provenance. The caller fills
// Params and hands it to Recorder.RecordManifest (which assigns RunID
// and the fingerprint).
func NewManifest(binary, scenario string, seed uint64) *Manifest {
	b := obs.ReadBuild()
	return &Manifest{
		FormatVersion: FormatVersion,
		Binary:        binary,
		Scenario:      scenario,
		Seed:          seed,
		StartUnixNs:   time.Now().UnixNano(),
		GoVersion:     b.GoVersion,
		VCSRevision:   b.Revision,
		VCSTime:       b.Time,
		VCSModified:   b.Modified,
	}
}

// RegisterRoutes adds the recorded-run endpoints to a telemetry server:
//
//	GET /runs            manifests of every run under root (newest first)
//	GET /runs/{id}.json  decoded summary of one run
func RegisterRoutes(srv *obs.Server, root string) {
	srv.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		obs.ServeJSON(w, r, func(out io.Writer) error {
			runs, err := ListRuns(root)
			if err != nil {
				runs = nil // empty/missing dir serves an empty list
			}
			if runs == nil {
				runs = []*Manifest{}
			}
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(runs)
		})
	})
	srv.HandleFunc("/runs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/runs/")
		id = strings.TrimSuffix(id, ".json")
		if !validRunID(id) {
			http.Error(w, "bad run id", http.StatusBadRequest)
			return
		}
		run, err := ReadRun(filepath.Join(root, id))
		if err != nil {
			http.Error(w, "run not found", http.StatusNotFound)
			return
		}
		obs.ServeJSON(w, r, func(out io.Writer) error {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(Summarize(run))
		})
	})
}

// validRunID accepts exactly the characters NewRunID emits (plus
// underscore for hand-named runs), keeping path traversal out of the
// /runs/{id} handler.
func validRunID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}
