package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestDuplicateTenantRacesOpenPool: a pool tenant refused because a
// private store holds its name is destroyed in its own pool, so its
// blocks return to the pool's Usage, and the refusal reads no part of
// the pool registry while POST /v1/pools writes it (run under -race:
// CI's event-ordered step does). The duplicate opens go through
// OpenStore directly, as the daemon's -open flag does.
func TestDuplicateTenantRacesOpenPool(t *testing.T) {
	srv := New()
	defer srv.Close(context.Background())
	ctx := context.Background()
	post := func(body string) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/pools", strings.NewReader(body)))
		return rec.Code
	}
	if code := post(`{"name":"p","drives":["mediumtest"],"adj_depth":32}`); code != http.StatusCreated {
		t.Fatalf("open pool: HTTP %d", code)
	}
	if _, err := srv.OpenStore(ctx, testSpec("t")); err != nil {
		t.Fatal(err)
	}
	spec := OpenStoreRequest{Name: "t", Pool: "p", Mapping: "multimap", Dims: []int{8, 8, 4}}
	srv.mu.Lock()
	p := srv.pools["p"]
	srv.mu.Unlock()
	before := p.Usage()

	const writers, poolsEach = 2, 12
	var wg sync.WaitGroup
	codes := make([]int, writers*poolsEach)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < poolsEach; i++ {
				codes[w*poolsEach+i] = post(fmt.Sprintf(`{"name":"q%d-%d","drives":["mediumtest"],"adj_depth":32}`, w, i))
			}
		}(w)
	}
	for i := 0; i < 2*writers*poolsEach; i++ {
		if _, err := srv.OpenStore(ctx, spec); err == nil || !strings.Contains(err.Error(), "already open") {
			t.Fatalf("duplicate tenant open %d: %v, want \"already open\"", i, err)
		}
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusCreated {
			t.Fatalf("pool %d: HTTP %d", i, code)
		}
	}
	if after := p.Usage(); !reflect.DeepEqual(after, before) {
		t.Fatalf("pool usage %+v after the refused tenants, want %+v", after, before)
	}
}
