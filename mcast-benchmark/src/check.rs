//! Output checks, each O(links): associations are folded into a
//! `LoadLedger` once and judged against the instance's candidate links
//! and AP budgets. None of them calls the quadratic
//! `Association::loads`.

use mcast_core::{Association, Instance, LoadLedger, Solution, UserId};

/// The ledger of `assoc`, after checking that every assigned AP is one of
/// the user's candidate links.
pub fn ledger<'a>(inst: &'a Instance, assoc: &Association) -> Result<LoadLedger<'a>, String> {
    if assoc.len() != inst.n_users() {
        return Err(format!(
            "association covers {} users, instance has {}",
            assoc.len(),
            inst.n_users()
        ));
    }
    for (u, ap) in assoc.iter().enumerate() {
        if let Some(a) = ap {
            let user = UserId(u as u32);
            if !inst.candidate_aps(user).iter().any(|&(c, _)| c == a) {
                return Err(format!("user {user} is on AP {a} without a link to it"));
            }
        }
    }
    Ok(LoadLedger::new(inst, assoc.clone()))
}

/// Every AP's load is within its budget.
pub fn within_budget(ledger: &LoadLedger<'_>) -> Result<(), String> {
    let inst = ledger.instance();
    match inst.aps().find(|&a| ledger.ap_load(a) > inst.budget(a)) {
        Some(a) => Err(format!(
            "AP {a} carries {} over its budget {}",
            ledger.ap_load(a),
            inst.budget(a)
        )),
        None => Ok(()),
    }
}

/// Every user is served.
pub fn covers_all(ledger: &LoadLedger<'_>) -> Result<(), String> {
    let served = ledger.association().satisfied_count();
    let n = ledger.instance().n_users();
    if served == n {
        Ok(())
    } else {
        Err(format!("{} of {n} users left unserved", n - served))
    }
}

/// The solver's reported metrics equal the ledger's.
pub fn reports_match(sol: &Solution, ledger: &LoadLedger<'_>) -> Result<(), String> {
    let got = (sol.satisfied, sol.max_load, sol.total_load);
    let want = (
        ledger.association().satisfied_count(),
        ledger.max_load(),
        ledger.total_load(),
    );
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{} reports (satisfied, max, total) = ({}, {}, {}), the ledger ({}, {}, {})",
            sol.objective, got.0, got.1, got.2, want.0, want.1, want.2
        ))
    }
}

/// What the quality metrics read off one checked association.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Served users over all users.
    pub satisfied_frac: f64,
    /// Largest AP load (airtime share).
    pub max_load: f64,
    /// Sum of AP loads (airtime share).
    pub total_load: f64,
}

impl Quality {
    /// Reads the quality of a checked association.
    pub fn of(ledger: &LoadLedger<'_>) -> Quality {
        Quality {
            satisfied_frac: ledger.association().satisfied_count() as f64
                / ledger.instance().n_users().max(1) as f64,
            max_load: ledger.max_load().as_f64(),
            total_load: ledger.total_load().as_f64(),
        }
    }
}

/// CRC-32 (IEEE, reflected) — the digest printed for associations.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// Digest of one association: CRC-32 over each user's AP index
/// (little-endian `u32`, `u32::MAX` for unserved).
pub fn digest(assoc: &Association) -> u32 {
    let bytes: Vec<u8> = assoc
        .iter()
        .flat_map(|ap| ap.map_or(u32::MAX, |a| a.0).to_le_bytes())
        .collect();
    crc32(&bytes)
}

/// Folds per-association digests, in a fixed order, into one.
pub fn combine(digests: &[u32]) -> u32 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    crc32(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
