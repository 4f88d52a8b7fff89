package experiments

import (
	"reflect"
	"testing"
)

func TestParseMachines(t *testing.T) {
	all := []Machine{Original, Straightened, ILDPBasic, ILDPModified}
	for _, tc := range []struct {
		in      string
		want    []Machine
		wantErr string
	}{
		{in: "all", want: all},
		{in: "original,straightened,ildp-basic,ildp-modified", want: all},
		{in: "ildp-modified", want: []Machine{ILDPModified}},
		{in: " straightened , original", want: []Machine{Straightened, Original}},
		{in: "ildp-modified,pentium", wantErr: `unknown machine "pentium" (want original, straightened, ildp-basic, ildp-modified, or all)`},
		{in: "", wantErr: `unknown machine "" (want original, straightened, ildp-basic, ildp-modified, or all)`},
	} {
		got, err := ParseMachines(tc.in)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("ParseMachines(%q) error = %v, want %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseMachines(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, m := range all {
		if got, err := MachineByName(m.String()); err != nil || got != m {
			t.Errorf("MachineByName(%q) = %v, %v", m, got, err)
		}
	}
	if _, err := MachineByName("all"); err == nil || err.Error() != `unknown machine "all"` {
		t.Errorf(`MachineByName("all") error = %v, want unknown machine "all"`, err)
	}
}
