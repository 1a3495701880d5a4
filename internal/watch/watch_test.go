package watch

import "testing"

func TestEventTypeString(t *testing.T) {
	if Created.String() != "created" || Updated.String() != "updated" || Deleted.String() != "deleted" {
		t.Fatal("event names wrong")
	}
}
