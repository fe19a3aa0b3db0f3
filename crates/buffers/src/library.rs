use crate::buffer::{BufferId, BufferType};

/// An ordered collection of buffer types (the paper's library `B`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BufferLibrary {
    buffers: Vec<BufferType>,
}

impl BufferLibrary {
    /// An empty library.
    pub fn new() -> Self {
        BufferLibrary::default()
    }

    /// A library holding exactly one buffer type — the configuration under
    /// which all three algorithms of the paper are provably optimal.
    pub fn single(buffer: BufferType) -> Self {
        BufferLibrary {
            buffers: vec![buffer],
        }
    }

    /// Adds a buffer type, returning its id.
    pub fn push(&mut self, buffer: BufferType) -> BufferId {
        let id = BufferId(self.buffers.len() as u32);
        self.buffers.push(buffer);
        id
    }

    /// Number of buffer types.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// True if the library holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Borrows a buffer type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this library.
    #[inline]
    pub fn buffer(&self, id: BufferId) -> &BufferType {
        &self.buffers[id.index()]
    }

    /// Iterator over the buffer types in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, BufferType> {
        self.buffers.iter()
    }

    /// Iterator over `(id, buffer)` pairs.
    pub fn entries(&self) -> impl Iterator<Item = (BufferId, &BufferType)> {
        self.buffers
            .iter()
            .enumerate()
            .map(|(i, b)| (BufferId(i as u32), b))
    }

    /// The buffer with the smallest output resistance — the one Theorem 3/4
    /// say suffices for pure noise avoidance with a multi-buffer library.
    pub fn min_resistance(&self) -> Option<BufferId> {
        self.entries()
            .min_by(|a, b| {
                a.1.resistance
                    .partial_cmp(&b.1.resistance)
                    .expect("finite resistances")
            })
            .map(|(id, _)| id)
    }

    /// The buffer with the smallest input capacitance (useful for
    /// decoupling off-path load, Section IV-C of the paper).
    pub fn min_input_capacitance(&self) -> Option<BufferId> {
        self.entries()
            .min_by(|a, b| {
                a.1.input_capacitance
                    .partial_cmp(&b.1.input_capacitance)
                    .expect("finite capacitances")
            })
            .map(|(id, _)| id)
    }

    /// Restricts the library to the single smallest-resistance buffer —
    /// the reduction Theorems 3 and 4 justify for Problems 1.
    pub fn to_noise_avoidance_library(&self) -> BufferLibrary {
        match self.min_resistance() {
            Some(id) => BufferLibrary::single(self.buffer(id).clone()),
            None => BufferLibrary::new(),
        }
    }

    /// Only the non-inverting buffers (polarity-safe subset).
    pub fn non_inverting(&self) -> BufferLibrary {
        BufferLibrary {
            buffers: self
                .buffers
                .iter()
                .filter(|b| !b.inverting)
                .cloned()
                .collect(),
        }
    }
}

impl FromIterator<BufferType> for BufferLibrary {
    fn from_iter<I: IntoIterator<Item = BufferType>>(iter: I) -> Self {
        BufferLibrary {
            buffers: iter.into_iter().collect(),
        }
    }
}

impl Extend<BufferType> for BufferLibrary {
    fn extend<I: IntoIterator<Item = BufferType>>(&mut self, iter: I) {
        self.buffers.extend(iter);
    }
}

impl<'a> IntoIterator for &'a BufferLibrary {
    type Item = &'a BufferType;
    type IntoIter = std::slice::Iter<'a, BufferType>;
    fn into_iter(self) -> Self::IntoIter {
        self.buffers.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib3() -> BufferLibrary {
        [
            BufferType::new("weak", 2e-15, 900.0, 25e-12, 0.9),
            BufferType::new("mid", 6e-15, 350.0, 30e-12, 0.85),
            BufferType::new("strong", 20e-15, 120.0, 40e-12, 0.8),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn min_resistance_finds_strong() {
        let lib = lib3();
        let id = lib.min_resistance().expect("non-empty");
        assert_eq!(lib.buffer(id).name, "strong");
    }

    #[test]
    fn min_input_cap_finds_weak() {
        let lib = lib3();
        let id = lib.min_input_capacitance().expect("non-empty");
        assert_eq!(lib.buffer(id).name, "weak");
    }

    #[test]
    fn noise_avoidance_reduction_is_single() {
        let reduced = lib3().to_noise_avoidance_library();
        assert_eq!(reduced.len(), 1);
        assert_eq!(reduced.buffer(BufferId::from_index(0)).name, "strong");
    }

    #[test]
    fn empty_library_edge_cases() {
        let lib = BufferLibrary::new();
        assert!(lib.is_empty());
        assert!(lib.min_resistance().is_none());
        assert_eq!(lib.to_noise_avoidance_library().len(), 0);
    }

    #[test]
    fn non_inverting_filter() {
        let mut lib = lib3();
        lib.push(BufferType::new("inv", 3e-15, 500.0, 20e-12, 0.9).inverting());
        assert_eq!(lib.len(), 4);
        assert_eq!(lib.non_inverting().len(), 3);
    }

    #[test]
    fn push_returns_sequential_ids() {
        let mut lib = BufferLibrary::new();
        let a = lib.push(BufferType::new("a", 1e-15, 100.0, 1e-12, 0.9));
        let b = lib.push(BufferType::new("b", 1e-15, 100.0, 1e-12, 0.9));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn extend_and_iter() {
        let mut lib = BufferLibrary::new();
        lib.extend(lib3().iter().cloned());
        assert_eq!(lib.iter().count(), 3);
        assert_eq!((&lib).into_iter().count(), 3);
    }
}
