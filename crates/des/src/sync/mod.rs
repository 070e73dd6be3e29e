//! Synchronisation primitives for simulated processes.

pub mod channel;
pub mod notify;
pub mod select;
pub mod semaphore;

pub use channel::{bounded, bounded_named, channel, channel_named, Receiver, SendError, Sender};
pub use notify::{Notified, Notify};
pub use select::{join_all, select2, Either, JoinAll, Select2};
pub use semaphore::{Permit, Semaphore};
