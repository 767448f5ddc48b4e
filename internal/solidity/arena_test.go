package solidity

import (
	"reflect"
	"testing"
)

// TestResetClearsEverySlab: after a tree touching every kind of node and
// list is released, no slab of its arena holds a value, so reset misses
// none of them and a recycled arena never grows without bound.
func TestResetClearsEverySlab(t *testing.T) {
	u, _ := ParseOn(nil, EveryNode)
	a := u.arena
	v := reflect.ValueOf(a).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).FieldByName("chunks").Len() == 0 {
			t.Errorf("EveryNode leaves slab %s unused", v.Type().Field(i).Name)
		}
	}
	u.detach()
	for i := 0; i < v.NumField(); i++ {
		chunks := v.Field(i).FieldByName("chunks")
		for j := 0; j < chunks.Len(); j++ {
			if n := chunks.Index(j).Len(); n != 0 {
				t.Errorf("slab %s chunk %d still holds %d values after reset", v.Type().Field(i).Name, j, n)
			}
		}
	}
}
