package query

import (
	"net/url"
	"reflect"
	"testing"
)

func TestParseRequest(t *testing.T) {
	for raw, want := range map[string]Request{
		"type=count":                           {Type: "count"},
		"type=average&h=7&dim=x&q=y":           {Type: "average", H: 7},
		"type=quantile&h=3&dim=1&q=0.9":        {Type: "quantile", H: 3, Dim: 1, Q: 0.9},
		"type=selectivity&dims=0&lo=-1&hi=2.5": {Type: "selectivity", Rect: &Rect{Dims: []int{0}, Lo: []float64{-1}, Hi: []float64{2.5}}},
	} {
		v, _ := url.ParseQuery(raw)
		got, err := ParseRequest(v)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v (%v), want %+v", raw, got, err, want)
		}
	}
	for _, raw := range []string{
		"type=nope",
		"type=count&h=-1",
		"type=selectivity",
		"type=quantile&q=2x",
		"type=quantile&dim=-1&q=0.5",
	} {
		v, _ := url.ParseQuery(raw)
		if _, err := ParseRequest(v); err == nil {
			t.Errorf("%s: parsed without error", raw)
		}
	}
}
