//! Support shared by the loopback-server suites (`net_*`).

use realm::net::{NetServer, ServerHandle};

/// Drains a loopback server when dropped — at the end of a test, and above all while a
/// failing assertion unwinds. `std::thread::scope` joins every thread it spawned before it
/// re-raises a panic, and a serving thread nobody drains never returns, so without this
/// guard a red assertion hangs the suite instead of failing it. Create it inside the scope,
/// right after spawning the serving thread.
pub struct DrainOnDrop(ServerHandle);

impl DrainOnDrop {
    pub fn new(server: &NetServer) -> Self {
        Self(server.handle())
    }
}

impl Drop for DrainOnDrop {
    fn drop(&mut self) {
        self.0.drain();
    }
}
