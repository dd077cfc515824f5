package main

import (
	"slices"
	"strings"
	"testing"

	"geonet/internal/core"
)

func TestSelectExperiments(t *testing.T) {
	all := core.Experiments()
	for _, tc := range []struct {
		only    string
		want    []string
		wantErr string
	}{
		{only: "", want: nil},
		{only: "table1", want: []string{"table1"}},
		{only: "table1, figure10,table1", want: []string{"figure10", "table1"}},
		{only: "table9", wantErr: `unknown experiment id "table9"`},
		{only: "table1,bogus", wantErr: `unknown experiment id "bogus"`},
		{only: "table1,", wantErr: `unknown experiment id ""`},
		{only: "Table1", wantErr: `unknown experiment id "Table1"`},
	} {
		got, err := selectExperiments(tc.only, all)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("-only %q: err = %v, want one containing %q", tc.only, err, tc.wantErr)
			} else if !strings.Contains(err.Error(), "table1, table2,") || !strings.Contains(err.Error(), "fractal") {
				t.Errorf("-only %q: error does not list the valid ids: %v", tc.only, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-only %q: %v", tc.only, err)
			continue
		}
		var ids []string
		for id := range got {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		if !slices.Equal(ids, tc.want) {
			t.Errorf("-only %q selects %v, want %v", tc.only, ids, tc.want)
		}
	}
}
