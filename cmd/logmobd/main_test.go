package main

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	for _, tc := range []struct {
		in, want, err string
	}{
		{in: "", want: "[]"},
		{in: "20,22", want: "[20 22]"},
		{in: " 1, -2 ,3", want: "[1 -2 3]"},
		{in: "1,x,3", err: `entry 2: bad integer "x"`},
		{in: "1,,3", err: `entry 2: bad integer ""`},
		{in: "9223372036854775808", err: "entry 1"},
	} {
		got, err := parseInts(tc.in)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("parseInts(%q) error = %v, want one containing %q", tc.in, err, tc.err)
			}
			continue
		}
		if err != nil || fmt.Sprint(got) != tc.want {
			t.Errorf("parseInts(%q) = %v, %v; want %s", tc.in, got, err, tc.want)
		}
	}
}

func TestSplitSeeds(t *testing.T) {
	for in, want := range map[string]string{
		"":                          "[]",
		"a:1":                       "[a:1]",
		" a:1 , ,b:2,":              "[a:1 b:2]",
		"127.0.0.1:7001,[::1]:7002": "[127.0.0.1:7001 [::1]:7002]",
	} {
		if got := fmt.Sprint(splitSeeds(in)); got != want {
			t.Errorf("splitSeeds(%q) = %s, want %s", in, got, want)
		}
	}
}
