package engine

import "container/list"

// lruCache is a bounded least-recently-used map. It is not safe for
// concurrent use; each owner guards it with its own mutex.
type lruCache[K comparable, V any] struct {
	cap   int
	order *list.List // front = most recently used
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lruCache[K, V] {
	return &lruCache[K, V]{cap: capacity, order: list.New(), items: map[K]*list.Element{}}
}

// get returns the cached value and marks it most recently used.
func (c *lruCache[K, V]) get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// add inserts or refreshes a value, evicting the least recently used entry
// when the cache is full.
func (c *lruCache[K, V]) add(key K, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(*lruEntry[K, V]).key)
	}
}

// len returns the number of cached entries.
func (c *lruCache[K, V]) len() int { return c.order.Len() }

// entries returns the cached entries least-recently-used first, so
// replaying them through add reproduces the recency order exactly — the
// snapshot save/restore path depends on this.
func (c *lruCache[K, V]) entries() []lruEntry[K, V] {
	out := make([]lruEntry[K, V], 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*lruEntry[K, V]))
	}
	return out
}
