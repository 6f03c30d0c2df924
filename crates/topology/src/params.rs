//! Dragonfly sizing parameters.

/// Sizing parameters of a Dragonfly network, using the nomenclature of
/// Kim et al. (ISCA 2008) adopted by the paper:
///
/// * `p` — compute nodes per router,
/// * `a` — routers per group,
/// * `h` — global links per router,
/// * `groups` — number of groups.
///
/// The paper always uses the *balanced, maximum-size* network:
/// `a = 2h`, `p = h`, `groups = a·h + 1 = 2h² + 1`. [`DragonflyParams::balanced`]
/// builds exactly that; the general constructor allows mildly unbalanced
/// networks for testing, as long as the network is maximum size for the
/// palmtree arrangement (`groups = a·h + 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DragonflyParams {
    /// Compute nodes per router.
    pub p: usize,
    /// Routers per group.
    pub a: usize,
    /// Global links per router.
    pub h: usize,
}

impl DragonflyParams {
    /// The balanced maximum-size network of the paper: `p = h`, `a = 2h`,
    /// `2h² + 1` groups.
    ///
    /// # Panics
    /// Panics if `h == 0`.
    pub fn balanced(h: usize) -> Self {
        assert!(h >= 1, "h must be at least 1");
        Self { p: h, a: 2 * h, h }
    }

    /// A general maximum-size network (`groups = a·h + 1`).
    ///
    /// # Panics
    /// Panics if any parameter is zero or `a < 2` (a group needs at least
    /// two routers for local links to exist).
    pub fn new(p: usize, a: usize, h: usize) -> Self {
        assert!(p >= 1 && h >= 1, "p and h must be at least 1");
        assert!(a >= 2, "a must be at least 2");
        Self { p, a, h }
    }

    /// Number of groups, `a·h + 1`.
    #[inline]
    pub fn groups(&self) -> usize {
        self.a * self.h + 1
    }

    /// Total number of routers, `a·(a·h + 1)`.
    #[inline]
    pub fn routers(&self) -> usize {
        self.a * self.groups()
    }

    /// Total number of compute nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.p * self.routers()
    }

    /// Ports per router in the canonical network: `p` node ports,
    /// `a − 1` local ports and `h` global ports. For the balanced network
    /// this is the paper's `4h − 1`.
    #[inline]
    pub fn ports_per_router(&self) -> usize {
        self.p + (self.a - 1) + self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_h6_dimensions() {
        // §V: h = 6 → 5,256 nodes, 876 routers, 73 groups of 12 routers,
        // 23 ports each, 2,628 global links and 4,818 local links.
        let p = DragonflyParams::balanced(6);
        assert_eq!(p.groups(), 73);
        assert_eq!(p.routers(), 876);
        assert_eq!(p.nodes(), 5256);
        assert_eq!(p.ports_per_router(), 23);
        assert_eq!(p.groups() * (p.groups() - 1) / 2, 2628);
        assert_eq!(p.groups() * p.a * (p.a - 1) / 2, 4818);
        assert_eq!((p.a, p.p), (2 * p.h, p.h));
    }

    #[test]
    fn intro_formulas_hold_for_all_h() {
        for h in 1..=16 {
            let p = DragonflyParams::balanced(h);
            assert_eq!(p.groups(), 2 * h * h + 1);
            assert_eq!(p.routers(), 4 * h * h * h + 2 * h);
            assert_eq!(p.nodes(), 4 * h * h * h * h + 2 * h * h);
            assert_eq!(p.ports_per_router(), 4 * h - 1);
        }
    }

    #[test]
    fn h16_scales_beyond_256k_nodes() {
        // §I: a 64-port router (h = 16) scales to more than 256K nodes.
        let p = DragonflyParams::balanced(16);
        assert!(p.nodes() > 256 * 1024);
    }

    #[test]
    #[should_panic(expected = "h must be at least 1")]
    fn zero_h_rejected() {
        DragonflyParams::balanced(0);
    }

    #[test]
    #[should_panic(expected = "a must be at least 2")]
    fn single_router_groups_rejected() {
        DragonflyParams::new(1, 1, 1);
    }
}
