//! Stackful fibers — minimal cooperative coroutines (replace `corosensei`).
//!
//! The M:N rank executor in `mim-mpisim` runs each simulated rank as a
//! *fiber*: an ordinary blocking closure given its own call stack, which the
//! scheduler can suspend at a well-defined seam (a mailbox wait) and resume
//! later on any worker thread.  Fibers are the only design that lets a rank
//! body — arbitrary user code that calls `recv` deep inside collectives —
//! block without pinning an OS thread: a state-machine rewrite would need
//! the whole call chain to be poll-based, and running stolen work on top of
//! a blocked rank's stack deadlocks the moment two ranks wait on each other.
//!
//! The context switch is ~30 instructions of inline assembly implementing
//! the System V x86-64 callee-saved contract (rbp, rbx, r12–r15, rsp); the
//! switched-to code continues after its own last switch, so caller-saved
//! state needs no saving.  Floating-point control state (mxcsr / x87 cw) is
//! not switched: no code in this workspace modifies it.
//!
//! Only x86-64 unix is supported.  [`SUPPORTED`] is `false` elsewhere and
//! the constructors panic; callers (the executor) must check it and fall
//! back to thread-per-rank.
//!
//! Panic safety: the fiber entry point wraps the body in `catch_unwind`, so
//! an unwinding rank panic never crosses the assembly frame (which would be
//! undefined behaviour).  The payload is carried back to the resumer via
//! [`Fiber::take_panic`].
//!
//! Stacks: each is an anonymous `mmap` of its own, outside the malloc arena
//! the code running on it allocates from.  A fiber that is dropped finished
//! (or never started) hands its stack to the cache of the thread that drops
//! it, and the next fiber of the same size made on that thread takes it
//! with its pages already faulted in.  A thread's cache is its own: taking
//! and returning a stack writes no memory another thread writes, so the
//! executor's workers, which make and drop a fiber per rank, do not meet
//! on a lock or a cache line at launch and teardown.  Behind the caches is
//! one process-wide pool: a fiber whose thread's cache has no stack of its
//! size takes one from there before it maps a fresh one, and a thread's
//! cache drains into the pool when the thread exits, so stacks outlive the
//! workers of one launch and serve the next.  Neither keeps a limit; what
//! they hold stays mapped for the life of the process.  A fiber dropped
//! while suspended still has frames on its stack, never to be unwound:
//! that stack is unmapped, not reused, so anything left pointing into
//! those frames faults instead of reading another fiber's.
//!
//! Overflow guard: a stack's lowest page is never written.  A fresh
//! anonymous mapping reads as zero, and a read of a page nothing wrote
//! maps the kernel's one shared zero page, which counts toward no
//! process's resident set; so a parked stack holds only the pages its
//! frames touched, at the top.  After each switch back, [`Fiber::resume`]
//! checks that the guard page's first and last words still read zero (the
//! last catches a descent into the page at its top) and panics with
//! `fiber stack overflow` otherwise.  A stack whose guard was written is
//! unmapped when its fiber is dropped, never cached or pooled: a dirty
//! guard reaches no other fiber, and no page is re-zeroed, which would
//! make it resident.  A `PROT_NONE` guard page is not used: it would split
//! the merged stack mappings, and `vm.max_map_count` would then cap the
//! process at about 32k stacks.

#[cfg(all(target_arch = "x86_64", target_family = "unix"))]
mod imp {
    use std::any::Any;
    use std::cell::{Cell, RefCell};
    use std::ffi::{c_int, c_void};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use crate::sync::Mutex;

    /// Whether stackful fibers work on this target.
    pub const SUPPORTED: bool = true;

    /// Smallest stack a fiber will be given, regardless of the requested
    /// size.  Deep enough for the entry shim plus a panic unwind.
    pub const MIN_STACK: usize = 64 * 1024;

    /// Stack sizes are whole pages, so a stack's top is its mapping's end.
    /// A stack's lowest page is its overflow guard (see the module doc).
    const PAGE: usize = 4096;

    extern "C" {
        fn mim_fiber_switch(save: *mut usize, load: usize);
        fn mim_fiber_start();
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    #[cfg(target_os = "linux")]
    const MAP_ANONYMOUS: c_int = 0x20;
    /// macOS and the BSDs.
    #[cfg(not(target_os = "linux"))]
    const MAP_ANONYMOUS: c_int = 0x1000;

    /// A fiber's call stack: `len` bytes of an anonymous private mapping,
    /// page-aligned at `base`.  The empty value (`len` 0) owns nothing.
    #[derive(Default)]
    struct Stack {
        base: usize,
        len: usize,
    }

    /// Stacks no frame lives on, kept for the next fiber of their size:
    /// what exited threads' caches held (see the module doc).
    static POOL: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

    /// One thread's stacks no frame lives on; drained into [`POOL`] when
    /// the thread exits.
    struct StackCache(RefCell<Vec<Stack>>);

    impl Drop for StackCache {
        fn drop(&mut self) {
            POOL.lock().append(self.0.get_mut());
        }
    }

    thread_local! {
        static CACHE: StackCache = const { StackCache(RefCell::new(Vec::new())) };
    }

    /// The most recently returned `len`-byte stack of `stacks`, removed.
    fn take_from(stacks: &mut Vec<Stack>, len: usize) -> Option<Stack> {
        stacks.iter().rposition(|s| s.len == len).map(|i| stacks.swap_remove(i))
    }

    /// A `len`-byte stack from the calling thread's cache.  Never inlined,
    /// for the reason [`current`] gives: a fiber that makes a fiber may
    /// have migrated since its last call.  `None` also once the thread's
    /// cache is torn down (a fiber made by another thread-local's
    /// destructor).
    #[inline(never)]
    fn take_cached(len: usize) -> Option<Stack> {
        CACHE.try_with(|c| take_from(&mut c.0.borrow_mut(), len)).ok().flatten()
    }

    /// Hand `stack` to the calling thread's cache.  Once the cache is torn
    /// down the closure is dropped unrun, and the stack with it: unmapped.
    /// Never inlined, as [`take_cached`].
    #[inline(never)]
    fn give_back(stack: Stack) {
        let _ = CACHE.try_with(move |c| c.0.borrow_mut().push(stack));
    }

    impl Stack {
        /// A `len`-byte stack: this thread's most recently returned one of
        /// that size, else the pool's, else a fresh mapping.
        fn take(len: usize) -> Stack {
            take_cached(len)
                .or_else(|| take_from(&mut POOL.lock(), len))
                .unwrap_or_else(|| Stack::map(len))
        }

        fn map(len: usize) -> Stack {
            // SAFETY: a new anonymous mapping; no existing memory is touched.
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if base as isize == -1 {
                // What a failed allocation does: abort, not unwind out of
                // the worker that was about to run this fiber.
                eprintln!(
                    "mim-util: fiber stack of {len} bytes: mmap failed: {}",
                    std::io::Error::last_os_error()
                );
                std::process::abort();
            }
            Stack { base: base as usize, len }
        }

        /// Whether the guard page's first and last words still read zero,
        /// as a mapping's pages do until something writes them.
        fn guard_clean(&self) -> bool {
            let guard = self.base as *const usize;
            // SAFETY: both words lie in the lowest page of the mapping this
            // value owns; reading one that was never written maps the
            // kernel's shared zero page, not a page of this process.
            unsafe { guard.read() == 0 && guard.add(PAGE / 8 - 1).read() == 0 }
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: `base..base + len` is a mapping this value owns,
                // and no fiber runs on it (see `Fiber`'s drop).
                unsafe {
                    munmap(self.base as *mut c_void, self.len);
                }
            }
        }
    }

    // System V x86-64 context switch.  `save` receives the current stack
    // pointer after the six callee-saved registers are pushed; `load` is a
    // stack pointer previously produced the same way (or hand-built by
    // `Fiber::new`).  The `ret` consumes the resume address sitting above
    // the register block.
    //
    // `mim_fiber_start` is the first frame of every fiber: `Fiber::new`
    // seeds r12 with the `FiberInner` pointer, and the `call` (not `jmp`)
    // re-establishes the ABI rule that rsp ≡ 8 (mod 16) at function entry.
    // `mim_fiber_entry` never returns (it diverges through the final
    // switch-back loop), so the trailing `ud2` is unreachable.
    core::arch::global_asm!(
        ".text",
        ".balign 16",
        ".globl mim_fiber_switch",
        ".hidden mim_fiber_switch",
        "mim_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov qword ptr [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".balign 16",
        ".globl mim_fiber_start",
        ".hidden mim_fiber_start",
        "mim_fiber_start:",
        "mov rdi, r12",
        "call mim_fiber_entry",
        "ud2",
    );

    /// Heap-pinned fiber state.  Boxed so its address survives moves of the
    /// owning [`Fiber`] handle — `suspend` captures a raw pointer to it
    /// across the switch.
    struct FiberInner {
        /// Stack pointer at which to (re)enter the fiber.
        resume_sp: usize,
        /// Stack pointer of whoever called `resume`, to switch back to.
        parent_sp: usize,
        /// The rank body; taken by the entry shim on first resume.
        body: Option<Box<dyn FnOnce() + Send>>,
        /// Panic payload captured by the entry shim, if the body unwound.
        panic: Option<Box<dyn Any + Send>>,
        done: bool,
    }

    thread_local! {
        /// The fiber currently running on this thread, if any; set around
        /// every `resume` so `suspend` can find its own state.
        static CURRENT: Cell<*mut FiberInner> = const { Cell::new(std::ptr::null_mut()) };
    }

    /// The fiber running on the *calling* thread (null outside one): the
    /// only way fiber code may read [`CURRENT`].
    ///
    /// Must never be inlined.  A suspended fiber resumes on whichever
    /// worker picks it up, but the optimiser treats a thread-local's
    /// address as constant within a function: inlined into a body that
    /// suspends twice, the first thread's slot address is kept in a
    /// callee-saved register — which the switch faithfully restores — and
    /// the second read consults the wrong thread.  Behind a call the
    /// address is computed afresh on the thread that makes the call, so no
    /// thread-local address lives across `mim_fiber_switch`.
    #[inline(never)]
    fn current() -> *mut FiberInner {
        CURRENT.with(Cell::get)
    }

    /// Why [`Fiber::resume`] returned.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Resume {
        /// The fiber called [`suspend`]; resume it again later.
        Suspended,
        /// The body returned or panicked; see [`Fiber::take_panic`].
        Done,
    }

    /// A suspended computation with its own stack.
    pub struct Fiber {
        inner: Box<FiberInner>,
        stack: Stack,
    }

    // SAFETY: a fiber may hold non-Send state (Rc clocks, RefCell
    // mailboxes) on its private stack, but that state is only ever touched
    // while the fiber runs, and `resume(&mut self)` guarantees at most one
    // thread runs it at a time.  Migrating a *suspended* fiber between
    // threads is exactly the one-thread-at-a-time discipline OS threads
    // already provide; the non-Send types involved (Rc, RefCell, Cell) are
    // thread-oblivious — they carry no thread-identity (unlike, say, a
    // lock guard), so which thread resumes next is unobservable to them.
    unsafe impl Send for Fiber {}

    impl Fiber {
        /// Create a fiber that will run `body` on its own `stack_size`-byte
        /// stack (clamped up to `MIN_STACK`, rounded up to a whole page)
        /// when first resumed.  The stack is a cached or pooled one of that
        /// size when this thread's cache or the pool has one (see the
        /// module doc).
        pub fn new(stack_size: usize, body: Box<dyn FnOnce() + Send>) -> Fiber {
            let stack = Stack::take(stack_size.max(MIN_STACK).next_multiple_of(PAGE));
            let mut inner = Box::new(FiberInner {
                resume_sp: 0,
                parent_sp: 0,
                body: Some(body),
                panic: None,
                done: false,
            });
            // Six registers and the resume address below the page-aligned top.
            let sp = stack.base + stack.len - 7 * 8;
            // SAFETY: all writes land in the stack's top page, which no frame
            // uses (fresh, or returned by a fiber that finished or never
            // ran); a recycled one gets its first frame anew.  Nothing is
            // written below it: the guard page is left reading zero.  The
            // layout mirrors what `mim_fiber_switch` pops.
            unsafe {
                let p = sp as *mut usize;
                p.write(0); // r15
                p.add(1).write(0); // r14
                p.add(2).write(0); // r13
                p.add(3).write(&mut *inner as *mut FiberInner as usize); // r12
                p.add(4).write(0); // rbx
                p.add(5).write(0); // rbp
                p.add(6).write(mim_fiber_start as *const () as usize); // resume address
            }
            inner.resume_sp = sp;
            Fiber { inner, stack }
        }

        /// Run the fiber until it suspends or completes.  Must not be
        /// called on a completed fiber (returns [`Resume::Done`] untouched).
        pub fn resume(&mut self) -> Resume {
            if self.inner.done {
                return Resume::Done;
            }
            let ptr: *mut FiberInner = &mut *self.inner;
            // The two writes bracket the switch on the *resuming* thread's
            // stack, and the switch comes back on the thread that made it,
            // so this slot address — unlike one held by fiber code, see
            // `current` — is still the right thread's afterwards.
            let prev = CURRENT.with(|c| c.replace(ptr));
            // SAFETY: `resume_sp` is either the hand-built initial frame or
            // the last frame saved by `suspend`/the entry loop; `ptr` stays
            // valid for the whole switch because `FiberInner` is boxed and
            // `&mut self` pins the handle.
            unsafe {
                mim_fiber_switch(&mut (*ptr).parent_sp, (*ptr).resume_sp);
            }
            CURRENT.with(|c| c.set(prev));
            assert!(self.stack.guard_clean(), "fiber stack overflow: guard page written");
            if self.inner.done {
                Resume::Done
            } else {
                Resume::Suspended
            }
        }

        /// Whether the body has finished.
        #[cfg(test)]
        pub(super) fn is_done(&self) -> bool {
            self.inner.done
        }

        /// The panic payload, if the body unwound (valid after `Done`).
        pub fn take_panic(&mut self) -> Option<Box<dyn Any + Send>> {
            self.inner.panic.take()
        }

        /// The lowest address of this fiber's stack.
        #[cfg(test)]
        pub(super) fn stack_base(&self) -> usize {
            self.stack.base
        }
    }

    impl Drop for Fiber {
        /// The stack goes back to the dropping thread's cache when no frame
        /// lives on it — the body finished, or never started — and its
        /// guard page still reads zero; it is unmapped otherwise.
        fn drop(&mut self) {
            if (self.inner.done || self.inner.body.is_some()) && self.stack.guard_clean() {
                give_back(std::mem::take(&mut self.stack));
            }
        }
    }

    /// How many stacks of `len` bytes a fiber made on this thread could
    /// take without mapping one: this thread's cache plus the pool.
    #[cfg(test)]
    pub(super) fn pooled(len: usize) -> usize {
        let of_len = |stacks: &Vec<Stack>| stacks.iter().filter(|s| s.len == len).count();
        CACHE.with(|c| of_len(&c.0.borrow())) + of_len(&POOL.lock())
    }

    /// Suspend the currently running fiber, returning control to whoever
    /// called [`Fiber::resume`].  Panics when called outside a fiber.
    pub fn suspend() {
        let ptr = current();
        assert!(!ptr.is_null(), "fiber::suspend() called outside a fiber");
        // SAFETY: `ptr` was installed by the `resume` currently below us on
        // the parent stack; the inner is boxed, so it cannot move.
        unsafe {
            mim_fiber_switch(&mut (*ptr).resume_sp, (*ptr).parent_sp);
        }
    }

    /// Whether the calling code is running inside a fiber.
    pub fn is_fiber() -> bool {
        !current().is_null()
    }

    /// First Rust frame of every fiber, reached via `mim_fiber_start`.
    /// Runs the body under `catch_unwind` (unwinding across the assembly
    /// frame would be UB), then parks forever in a switch-back loop so a
    /// stray extra resume is harmless rather than a jump into freed stack.
    #[no_mangle]
    extern "C" fn mim_fiber_entry(ptr: *mut FiberInner) -> ! {
        // SAFETY: `ptr` is the boxed FiberInner seeded into r12 by `new`;
        // the box outlives the fiber because `Fiber` owns it.
        unsafe {
            if let Some(body) = (*ptr).body.take() {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                    (*ptr).panic = Some(payload);
                }
            }
            (*ptr).done = true;
            loop {
                mim_fiber_switch(&mut (*ptr).resume_sp, (*ptr).parent_sp);
            }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_family = "unix")))]
mod imp {
    use std::any::Any;

    /// Whether stackful fibers work on this target.
    pub const SUPPORTED: bool = false;

    /// Why [`Fiber::resume`] returned.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Resume {
        /// The fiber called [`suspend`]; resume it again later.
        Suspended,
        /// The body returned or panicked; see [`Fiber::take_panic`].
        Done,
    }

    /// Unsupported-target stub; constructors panic.  Callers must check
    /// [`SUPPORTED`] and fall back to thread-per-rank.
    pub struct Fiber {
        never: std::convert::Infallible,
    }

    impl Fiber {
        /// Panics: fibers are not supported on this target.
        pub fn new(_stack_size: usize, _body: Box<dyn FnOnce() + Send>) -> Fiber {
            panic!("stackful fibers are not supported on this target (check fiber::SUPPORTED)");
        }

        /// Unreachable on this target.
        pub fn resume(&mut self) -> Resume {
            match self.never {}
        }

        /// Unreachable on this target.
        pub fn take_panic(&mut self) -> Option<Box<dyn Any + Send>> {
            match self.never {}
        }
    }

    /// Panics: fibers are not supported on this target.
    pub fn suspend() {
        panic!("fiber::suspend() on a target without fiber support");
    }

    /// Always false on this target.
    pub fn is_fiber() -> bool {
        false
    }
}

pub use imp::{is_fiber, suspend, Fiber, Resume, SUPPORTED};

#[cfg(all(test, target_arch = "x86_64", target_family = "unix"))]
mod tests {
    use super::imp::MIN_STACK;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_to_completion_without_suspending() {
        let hit = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hit);
        let mut f = Fiber::new(
            MIN_STACK,
            Box::new(move || {
                h.store(7, Ordering::SeqCst);
            }),
        );
        assert_eq!(f.resume(), Resume::Done);
        assert!(f.is_done());
        assert_eq!(hit.load(Ordering::SeqCst), 7);
        assert!(f.take_panic().is_none());
    }

    #[test]
    fn suspends_and_resumes_interleaved() {
        let log = Arc::new(AtomicUsize::new(0));
        let l = Arc::clone(&log);
        let mut f = Fiber::new(
            MIN_STACK,
            Box::new(move || {
                l.fetch_add(1, Ordering::SeqCst);
                suspend();
                l.fetch_add(10, Ordering::SeqCst);
                suspend();
                l.fetch_add(100, Ordering::SeqCst);
            }),
        );
        assert_eq!(f.resume(), Resume::Suspended);
        assert_eq!(log.load(Ordering::SeqCst), 1);
        assert_eq!(f.resume(), Resume::Suspended);
        assert_eq!(log.load(Ordering::SeqCst), 11);
        assert_eq!(f.resume(), Resume::Done);
        assert_eq!(log.load(Ordering::SeqCst), 111);
    }

    #[test]
    fn panic_payload_is_captured_not_propagated() {
        let mut f = Fiber::new(
            MIN_STACK,
            Box::new(|| {
                panic!("boom from fiber");
            }),
        );
        assert_eq!(f.resume(), Resume::Done);
        let payload = f.take_panic().into_iter().next();
        let msg =
            payload.as_ref().and_then(|p| p.downcast_ref::<&str>().copied()).unwrap_or("<missing>");
        assert_eq!(msg, "boom from fiber");
    }

    #[test]
    fn suspended_fiber_migrates_between_threads() {
        let sum = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&sum);
        let mut f = Fiber::new(
            MIN_STACK,
            Box::new(move || {
                s.fetch_add(1, Ordering::SeqCst);
                suspend();
                s.fetch_add(2, Ordering::SeqCst);
                suspend();
                s.fetch_add(4, Ordering::SeqCst);
            }),
        );
        assert_eq!(f.resume(), Resume::Suspended);
        let mut f = std::thread::spawn(move || {
            assert_eq!(f.resume(), Resume::Suspended);
            f
        })
        .join()
        .unwrap_or_else(|_| panic!("migration thread panicked"));
        assert_eq!(f.resume(), Resume::Done);
        assert_eq!(sum.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn many_fibers_round_robin() {
        const N: usize = 64;
        const ROUNDS: usize = 8;
        let counter = Arc::new(AtomicUsize::new(0));
        let mut fibers: Vec<Fiber> = (0..N)
            .map(|_| {
                let c = Arc::clone(&counter);
                Fiber::new(
                    MIN_STACK,
                    Box::new(move || {
                        for _ in 0..ROUNDS {
                            c.fetch_add(1, Ordering::SeqCst);
                            suspend();
                        }
                    }),
                )
            })
            .collect();
        let mut live = N;
        while live > 0 {
            live = 0;
            for f in &mut fibers {
                if !f.is_done() && f.resume() == Resume::Suspended {
                    live += 1;
                }
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), N * ROUNDS);
    }

    #[test]
    fn nested_resume_runs_inner_fiber_on_fiber_stack() {
        let out = Arc::new(AtomicUsize::new(0));
        let o = Arc::clone(&out);
        let mut outer = Fiber::new(
            4 * MIN_STACK,
            Box::new(move || {
                let o2 = Arc::clone(&o);
                let mut inner = Fiber::new(
                    MIN_STACK,
                    Box::new(move || {
                        o2.store(42, Ordering::SeqCst);
                        suspend();
                        o2.store(43, Ordering::SeqCst);
                    }),
                );
                assert_eq!(inner.resume(), Resume::Suspended);
                suspend(); // suspends *outer*, not inner
                assert_eq!(inner.resume(), Resume::Done);
            }),
        );
        assert_eq!(outer.resume(), Resume::Suspended);
        assert_eq!(out.load(Ordering::SeqCst), 42);
        assert_eq!(outer.resume(), Resume::Done);
        assert_eq!(out.load(Ordering::SeqCst), 43);
    }

    /// The pool matches stacks by size: each test below asks for a size no
    /// other test does, so the pool's stacks of it are that test's alone.
    const PAGE: usize = 4096;

    #[test]
    fn a_recycled_stack_runs_a_fiber_like_a_fresh_one() {
        const SIZE: usize = MIN_STACK + 3 * PAGE;
        // A fiber that finishes with a non-zero word at either end of its
        // guard page, as an overflow would leave it, fails its resume, and
        // its stack is unmapped, not pooled.
        for word in [0, PAGE / 8 - 1] {
            let mut clobbered = Fiber::new(SIZE, Box::new(|| {}));
            // SAFETY: a word of the guard page; nothing runs on the stack.
            unsafe { (clobbered.stack_base() as *mut usize).add(word).write(1) };
            let overflow =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| clobbered.resume()));
            assert!(overflow.is_err(), "a written guard word {word} must fail the resume");
            assert!(clobbered.is_done());
            drop(clobbered);
            assert_eq!(imp::pooled(SIZE), 0, "a stack with a written guard was pooled");
        }
        // A healthy fiber finishes and its stack goes back to the pool.
        let mut first = Fiber::new(SIZE, Box::new(|| {}));
        let base = first.stack_base();
        assert_eq!(first.resume(), Resume::Done);
        drop(first);
        assert_eq!(imp::pooled(SIZE), 1);
        // The next fiber of that size takes the same stack, with a first
        // frame of its own: it runs its body from the top, suspends,
        // migrates, and its panic is captured.
        let sum = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&sum);
        let mut second = Fiber::new(
            SIZE,
            Box::new(move || {
                s.fetch_add(1, Ordering::SeqCst);
                suspend();
                s.fetch_add(2, Ordering::SeqCst);
                suspend();
                panic!("boom on a recycled stack");
            }),
        );
        assert_eq!(second.stack_base(), base, "the pooled stack is reused");
        assert_eq!(imp::pooled(SIZE), 0);
        assert_eq!(second.resume(), Resume::Suspended);
        let mut second = std::thread::spawn(move || {
            assert_eq!(second.resume(), Resume::Suspended);
            second
        })
        .join()
        .unwrap_or_else(|_| panic!("migration thread panicked"));
        assert_eq!(second.resume(), Resume::Done);
        assert_eq!(sum.load(Ordering::SeqCst), 3);
        let payload = second.take_panic();
        let msg = payload.as_ref().and_then(|p| p.downcast_ref::<&str>().copied());
        assert_eq!(msg, Some("boom on a recycled stack"));
        drop(second);
        assert_eq!(imp::pooled(SIZE), 1);
    }

    /// Whether the page holding `addr` is present and mapped by this
    /// process alone: bits 63 and 56 of its `/proc/self/pagemap` entry.
    #[cfg(target_os = "linux")]
    fn resident_own_page(addr: usize) -> bool {
        use std::io::{Read, Seek, SeekFrom};
        let mut pagemap = std::fs::File::open("/proc/self/pagemap").expect("open pagemap");
        pagemap.seek(SeekFrom::Start((addr / PAGE * 8) as u64)).expect("seek pagemap");
        let mut entry = [0; 8];
        pagemap.read_exact(&mut entry).expect("read pagemap");
        let entry = u64::from_le_bytes(entry);
        entry & (1 << 63) != 0 && entry & (1 << 56) != 0
    }

    /// A parked fiber's guard page reads zero through the kernel's shared
    /// zero page, so it is no page of this process's own; its top page,
    /// which holds frames, is (the control that the reading works).  Not
    /// read with `mincore`: that reports a page that was only read as
    /// resident.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_parked_stack_guard_page_is_not_a_page_of_its_own() {
        const SIZE: usize = MIN_STACK + 9 * PAGE;
        let check = |f: &Fiber, which: &str| {
            let base = f.stack_base();
            assert!(!resident_own_page(base), "{which} fiber's guard page is resident");
            assert!(resident_own_page(base + SIZE - PAGE), "{which} fiber's top page is not");
        };
        let mut first = Fiber::new(SIZE, Box::new(suspend));
        assert_eq!(first.resume(), Resume::Suspended);
        check(&first, "the first");
        assert_eq!(first.resume(), Resume::Done);
        let base = first.stack_base();
        drop(first);
        // The stack is recycled into a second fiber, and its guard page is
        // still not resident while that fiber parks.
        let mut second = Fiber::new(SIZE, Box::new(suspend));
        assert_eq!(second.stack_base(), base, "the pooled stack is reused");
        assert_eq!(second.resume(), Resume::Suspended);
        check(&second, "the second");
        assert_eq!(second.resume(), Resume::Done);
    }

    /// A stack returned on a thread stays in that thread's cache while the
    /// thread lives, and reaches the pool when it exits: the next thread's
    /// first fiber of that size runs on it, as the next launch's workers
    /// run on the stacks the last launch's left.
    #[test]
    fn a_stack_outlives_the_thread_that_returned_it() {
        const SIZE: usize = MIN_STACK + 7 * PAGE;
        let worker = || {
            let mut f = Fiber::new(SIZE, Box::new(|| {}));
            assert_eq!(f.resume(), Resume::Done);
            let base = f.stack_base();
            drop(f);
            assert_eq!(imp::pooled(SIZE), 1, "the returning thread sees its stack");
            base
        };
        let first = std::thread::spawn(worker).join().unwrap_or_else(|_| panic!("worker panicked"));
        assert_eq!(imp::pooled(SIZE), 1, "an exited thread's cache drains into the pool");
        let second =
            std::thread::spawn(worker).join().unwrap_or_else(|_| panic!("worker panicked"));
        assert_eq!(second, first, "the next thread's first fiber took the pooled stack");
        assert_eq!(imp::pooled(SIZE), 1);
    }

    /// A stack with live frames on it is never handed to another fiber;
    /// one that never ran a frame is.
    #[test]
    fn only_a_stack_without_live_frames_is_pooled() {
        const SIZE: usize = MIN_STACK + 5 * PAGE;
        let mut suspended = Fiber::new(SIZE, Box::new(suspend));
        assert_eq!(suspended.resume(), Resume::Suspended);
        drop(suspended);
        assert_eq!(imp::pooled(SIZE), 0, "a suspended fiber's stack was pooled");
        drop(Fiber::new(SIZE, Box::new(|| {})));
        assert_eq!(imp::pooled(SIZE), 1, "a never-started fiber's stack was not pooled");
    }
}
