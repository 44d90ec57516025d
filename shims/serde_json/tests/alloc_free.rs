//! Rendering a `Value` allocates nothing but its output: integers (to the
//! extremes of `i128`), floats, escaped strings and nested containers are
//! written straight into the destination, and `to_string` borrows a
//! `Value` instead of copying its tree first.
//!
//! A counting global allocator observes the rendering thread; this file is
//! its own test binary, so the allocator counts nothing else's work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

use serde_json::{json, Value};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; counting touches
// only a const-initialized thread-local `Cell`, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s.
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    assert_eq!(allocations_in(|| drop(std::hint::black_box(vec![1u8]))), 1);
    assert_eq!(allocations_in(|| drop(std::hint::black_box(7i128.to_string()))), 1);
}

#[test]
fn integers_render_without_allocating() {
    let mut out = String::with_capacity(64);
    for i in [0, 7, -7, 10, -100, i128::from(u64::MAX), i128::MIN, i128::MAX] {
        let value = Value::Int(i);
        out.clear();
        assert_eq!(allocations_in(|| write!(out, "{value}").unwrap()), 0, "{i}");
        assert_eq!(out, i.to_string());
    }
}

#[test]
fn nested_values_render_without_allocating() {
    let value = json!({
        "pairs": vec![json!([0, 9]), json!([10, 99]), json!([i128::MIN, i128::MAX])],
        "floats": vec![0.0, -2.5, 1e21, f64::NAN],
        "text": "q\"uote\\ \n\u{1}ε",
        "empty": json!({ "a": Value::Array(vec![]), "o": Value::Object(vec![]) }),
    });
    let mut out = String::with_capacity(1024);
    for pretty in [false, true] {
        out.clear();
        let allocations = allocations_in(|| {
            if pretty {
                write!(out, "{value:#}").unwrap();
            } else {
                write!(out, "{value}").unwrap();
            }
        });
        assert_eq!(allocations, 0, "pretty = {pretty}: {out}");
    }
}

#[test]
fn to_string_borrows_a_value_instead_of_copying_it() {
    let value = Value::Array((0..1_000).map(|i| json!([i, -i])).collect());
    let direct = allocations_in(|| drop(value.to_string()));
    let through_to_string = allocations_in(|| drop(serde_json::to_string(&value).unwrap()));
    assert_eq!(through_to_string, direct);
    assert_eq!(serde_json::to_string(&value).unwrap(), value.to_string());
}
