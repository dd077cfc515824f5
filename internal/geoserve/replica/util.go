package replica

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// writeJSON mirrors geoserve's encoder so replication endpoints speak
// the same dialect as the serving API.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// httpJSONError matches geoserve's {"error": "..."} error shape.
func httpJSONError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// b2f is a flag as a gauge value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
