package fault

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"netsmith/internal/expert"
	"netsmith/internal/layout"
)

// FuzzParseFaultSchedule hardens the schedule CLI syntax ("name" or
// "name:key=val:key=val"): parsing must never panic, a successful parse
// must yield a non-empty name, and rebuilding the canonical argument
// from the parsed pieces must round-trip to the same name and params.
// Accepted arguments are additionally pushed through Registry.Build
// against a mesh topology to shake out builder panics on hostile
// parameter values — builders must return errors, never crash.
func FuzzParseFaultSchedule(f *testing.F) {
	for _, seed := range []string{
		"none",
		"klinks",
		"klinks:k=2:seed=9",
		"klinks:k=-1",
		"klinks:k=99999:at=0",
		"krouters:k=3:at=0:until=100",
		"randlinks:rate=0.25:seed=7",
		"randlinks:rate=nan",
		"list:events=link=0>1@100-200+router=3@500",
		"list:events=link=0>1@200-100",
		"list:events=router=-1@0",
		"list:events=",
		"  spaced  :  k = v ",
		":",
		"name:noequals",
		"name:k=v:k=w",
		"a=b:k=v",
		"name:k=v=w",
	} {
		f.Add(seed)
	}
	tp := expert.Mesh(layout.NewGrid(4, 5))
	reg := Default()
	f.Fuzz(func(t *testing.T, arg string) {
		name, params, err := ParseScheduleArg(arg)
		if err != nil {
			return
		}
		if name == "" {
			t.Fatalf("ParseScheduleArg(%q) accepted an empty name", arg)
		}
		// Canonical rebuild: the split runs on ":" before "=", so parsed
		// values can never contain ":" and re-parsing must reproduce the
		// exact name/params pair.
		rebuilt := name
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rebuilt += ":" + k + "=" + params[k]
		}
		name2, params2, err2 := ParseScheduleArg(rebuilt)
		if err2 != nil {
			t.Fatalf("round-trip %q -> %q failed to parse: %v", arg, rebuilt, err2)
		}
		if name2 != strings.TrimSpace(name) {
			t.Fatalf("round-trip name %q != %q (arg %q)", name2, name, arg)
		}
		if len(params) > 0 && !reflect.DeepEqual(params, params2) {
			t.Fatalf("round-trip params %v != %v (arg %q)", params2, params, arg)
		}
		if sched, err := reg.Build(name, tp, params); err == nil {
			// Canonical keys of accepted schedules are stable under
			// re-keying with the same params.
			if sched.Key != ScheduleKey(name, params) {
				t.Fatalf("schedule key %q != canonical %q", sched.Key, ScheduleKey(name, params))
			}
		}
	})
}
