//! Fixture for `finding_text.rs`: one finding per rule family — a lint
//! rule (a suppression without a justification), a panic-path construct
//! and a nondeterminism source. `Ftl::recover` and `end_to_end_report`
//! are configured entry points of the two reachability passes.

pub struct Ftl;

impl Ftl {
    pub fn recover(&mut self, page: Option<u64>) -> u64 {
        self.replay(page)
    }

    fn replay(&self, page: Option<u64>) -> u64 {
        page.unwrap()
    }
}

pub fn end_to_end_report() -> u64 {
    tally()
}

fn tally() -> u64 {
    let seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
    seen.iter().sum()
}

pub fn later() {
    // sos-lint: allow(panic-path)
}
