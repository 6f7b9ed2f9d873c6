package locktable

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"distlock/internal/model"
)

func benchDDB(entities int) (*model.DDB, []model.EntityID) {
	ddb := model.NewDDB()
	ents := make([]model.EntityID, entities)
	for i := range ents {
		ents[i] = ddb.MustEntity(fmt.Sprintf("e%d", i), fmt.Sprintf("s%d", i%4))
	}
	return ddb, ents
}

// BenchmarkUncontendedAcquireRelease is the fast path the sharded backend
// exists for: grant and release with no other traffic — two mutex
// sections per pair.
func BenchmarkUncontendedAcquireRelease(b *testing.B) {
	for _, bc := range []backendCase{{"sharded", NewSharded}} {
		b.Run(bc.name, func(b *testing.B) {
			ddb, ents := benchDDB(4)
			tab := bc.make(ddb, Config{})
			defer tab.Close()
			in := inst(1)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := ents[i%len(ents)]
				if err := tab.Acquire(ctx, in, e, Exclusive); err != nil {
					b.Fatal(err)
				}
				if err := tab.Release(e, in.Key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelAcquireRelease measures independent-entity scaling:
// each worker hammers its own entity, so an ideal table serializes
// nothing.
func BenchmarkParallelAcquireRelease(b *testing.B) {
	for _, bc := range []backendCase{{"sharded", NewSharded}} {
		b.Run(bc.name, func(b *testing.B) {
			ddb, ents := benchDDB(64)
			tab := bc.make(ddb, Config{})
			defer tab.Close()
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(next.Add(1))
				in := inst(id)
				e := ents[id%len(ents)]
				ctx := context.Background()
				for pb.Next() {
					if err := tab.Acquire(ctx, in, e, Exclusive); err != nil {
						b.Error(err)
						return
					}
					if err := tab.Release(e, in.Key); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
