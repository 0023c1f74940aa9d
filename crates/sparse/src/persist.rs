//! Byte-level (de)serialization of the sparse substrate.
//!
//! This module is the bottom layer of the on-disk index format (see
//! `mogul-core::persist` for the container): a little-endian, length-prefixed
//! codec for the primitive shapes every persisted structure is made of —
//! integers, `f64` slices (stored bit-exactly via [`f64::to_bits`]), CSR
//! matrices, [`FeatureMatrix`]es and [`Permutation`]s — plus the decoder of
//! format v1's CSR `L D Lᵀ` factors, which v1 files still need.
//!
//! Design rules, shared by every `decode_*` function:
//!
//! * **Never panic.** Every read is bounds-checked through [`ByteReader`];
//!   short input returns [`SparseError::InvalidInput`] naming the field.
//! * **Never trust a length.** Element counts are validated against the
//!   number of bytes actually remaining *before* any allocation, so a
//!   corrupted length cannot trigger a huge allocation.
//! * **Validate structurally.** Decoded matrices go through
//!   [`CsrMatrix::from_raw_parts`] or [`FeatureMatrix::from_vec`] and
//!   decoded permutations through [`Permutation::from_new_to_old`], so
//!   malformed payloads are rejected with the same errors a malformed
//!   in-memory construction would produce.
//!
//! Values round-trip bit-exactly: floats are stored as raw IEEE-754 bits, so
//! a loaded factor produces *identical* substitution results, not merely
//! close ones.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};
use crate::features::FeatureMatrix;
use crate::ldl::LdlFactors;
use crate::permutation::Permutation;

/// FNV-1a 64-bit hash — the per-section checksum of the index file format.
///
/// Not cryptographic; the goal is detecting torn writes, truncation and
/// bit rot, for which a 64-bit FNV over the section payload is ample.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Encoding primitives (infallible: they just append to a Vec)
// ---------------------------------------------------------------------------

/// Append a `u64` in little-endian order.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Append a `u32` in little-endian order.
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Append a `usize` as a `u64`.
pub fn put_usize(out: &mut Vec<u8>, value: usize) {
    put_u64(out, value as u64);
}

/// Append an `f64` as its raw IEEE-754 bits (bit-exact round-trip).
pub fn put_f64(out: &mut Vec<u8>, value: f64) {
    put_u64(out, value.to_bits());
}

/// Append a length-prefixed slice of `usize` values.
pub fn put_usize_slice(out: &mut Vec<u8>, values: &[usize]) {
    put_usize(out, values.len());
    for &v in values {
        put_usize(out, v);
    }
}

/// Append a length-prefixed slice of `f64` values (bit-exact).
pub fn put_f64_slice(out: &mut Vec<u8>, values: &[f64]) {
    put_usize(out, values.len());
    for &v in values {
        put_f64(out, v);
    }
}

// ---------------------------------------------------------------------------
// Decoding primitives
// ---------------------------------------------------------------------------

/// A bounds-checked forward cursor over a byte slice.
///
/// All reads return [`SparseError::InvalidInput`] (naming the field that was
/// being read) instead of panicking when the input is short.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn short(&self, what: &str, needed: usize) -> SparseError {
        SparseError::InvalidInput(format!(
            "truncated payload while reading {what}: need {needed} bytes, {} remain",
            self.remaining()
        ))
    }

    /// Read `len` raw bytes.
    pub fn take_bytes(&mut self, len: usize, what: &str) -> Result<&'a [u8]> {
        if len > self.remaining() {
            return Err(self.short(what, len));
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Read one little-endian `u64`.
    pub fn take_u64(&mut self, what: &str) -> Result<u64> {
        let bytes = self.take_bytes(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// Read a `u64` and convert it to `usize`, rejecting values that do not
    /// fit the platform's pointer width.
    pub fn take_usize(&mut self, what: &str) -> Result<usize> {
        let v = self.take_u64(what)?;
        usize::try_from(v).map_err(|_| {
            SparseError::InvalidInput(format!("{what}: value {v} does not fit in usize"))
        })
    }

    /// Read one `f64` stored as raw bits.
    pub fn take_f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64(what)?))
    }

    /// Read a length prefix for elements of `elem_bytes` bytes each,
    /// validating the count against the remaining payload *before* the
    /// caller allocates.
    pub fn take_len(&mut self, elem_bytes: usize, what: &str) -> Result<usize> {
        let len = self.take_usize(what)?;
        let needed = len
            .checked_mul(elem_bytes)
            .ok_or_else(|| SparseError::InvalidInput(format!("{what}: length {len} overflows")))?;
        if needed > self.remaining() {
            return Err(SparseError::InvalidInput(format!(
                "{what}: declared {len} elements ({needed} bytes) but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Read `len` little-endian `u32`s (no length prefix): the bytes are
    /// taken, and so checked against the remaining payload, before the
    /// vector is allocated.
    pub fn take_u32s(&mut self, len: usize, what: &str) -> Result<Vec<u32>> {
        let bytes = self.take_array_bytes(len, 4, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Read `len` `f64`s stored as raw bits (no length prefix), checked
    /// against the remaining payload like [`ByteReader::take_u32s`].
    pub fn take_f64s(&mut self, len: usize, what: &str) -> Result<Vec<f64>> {
        let bytes = self.take_array_bytes(len, 8, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk"))))
            .collect())
    }

    fn take_array_bytes(&mut self, len: usize, elem_bytes: usize, what: &str) -> Result<&'a [u8]> {
        let needed = len
            .checked_mul(elem_bytes)
            .ok_or_else(|| SparseError::InvalidInput(format!("{what}: length {len} overflows")))?;
        self.take_bytes(needed, what)
    }

    /// Read a length-prefixed `usize` slice.
    pub fn take_usize_vec(&mut self, what: &str) -> Result<Vec<usize>> {
        let len = self.take_len(8, what)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.take_usize(what)?);
        }
        Ok(out)
    }

    /// Read a length-prefixed `f64` slice (bit-exact).
    pub fn take_f64_vec(&mut self, what: &str) -> Result<Vec<f64>> {
        let len = self.take_len(8, what)?;
        self.take_f64s(len, what)
    }

    /// Assert that the payload was consumed exactly (no trailing bytes).
    pub fn finish(&self, what: &str) -> Result<()> {
        if self.remaining() != 0 {
            return Err(SparseError::InvalidInput(format!(
                "{what}: {} unexpected trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Structure codecs
// ---------------------------------------------------------------------------

/// Append a CSR matrix (shape + indptr + indices + values).
pub fn encode_csr(matrix: &CsrMatrix, out: &mut Vec<u8>) {
    put_usize(out, matrix.nrows());
    put_usize(out, matrix.ncols());
    put_usize_slice(out, matrix.indptr());
    put_usize_slice(out, matrix.indices());
    put_f64_slice(out, matrix.values());
}

/// Decode a CSR matrix, re-validating every structural invariant through
/// [`CsrMatrix::from_raw_parts`].
pub fn decode_csr(reader: &mut ByteReader<'_>, what: &str) -> Result<CsrMatrix> {
    let nrows = reader.take_usize(what)?;
    let ncols = reader.take_usize(what)?;
    let indptr = reader.take_usize_vec(what)?;
    let indices = reader.take_usize_vec(what)?;
    let values = reader.take_f64_vec(what)?;
    CsrMatrix::from_raw_parts(nrows, ncols, indptr, indices, values)
}

/// Append a feature matrix (row count, width, row-major values).
pub fn encode_features(features: &FeatureMatrix, out: &mut Vec<u8>) {
    put_usize(out, features.len());
    put_usize(out, features.dim());
    for &v in features.as_slice() {
        put_f64(out, v);
    }
}

/// Decode a feature matrix through [`FeatureMatrix::from_vec`]: a zero
/// width or a non-finite value is rejected like an in-memory one, and no
/// allocation is larger than the payload's remaining bytes.
pub fn decode_features(reader: &mut ByteReader<'_>, what: &str) -> Result<FeatureMatrix> {
    let n = reader.take_usize(what)?;
    let dim = reader.take_usize(what)?;
    let values = n
        .checked_mul(dim)
        .filter(|&count| count <= reader.remaining() / 8)
        .ok_or_else(|| {
            SparseError::InvalidInput(format!(
                "{what}: {n} x {dim} values declared but only {} bytes remain",
                reader.remaining()
            ))
        })?;
    FeatureMatrix::from_vec(dim, reader.take_f64s(values, what)?)
}

/// Append a permutation (its `new → old` map).
pub fn encode_permutation(perm: &Permutation, out: &mut Vec<u8>) {
    put_usize_slice(out, perm.new_to_old());
}

/// Decode a permutation, re-validating bijectivity.
pub fn decode_permutation(reader: &mut ByteReader<'_>, what: &str) -> Result<Permutation> {
    Permutation::from_new_to_old(reader.take_usize_vec(what)?)
}

/// Decode the `L D Lᵀ` factors of a format v1 `factors` payload: the CSR
/// `L` ([`encode_csr`]), `D` as a length-prefixed `f64` slice and the
/// boosted-pivot count. Only format v1 files hold this layout: the writer
/// emits v2.
pub fn decode_ldl_factors(reader: &mut ByteReader<'_>, what: &str) -> Result<LdlFactors> {
    let l = decode_csr(reader, what)?;
    let d = reader.take_f64_vec(what)?;
    let boosted_pivots = reader.take_usize(what)?;
    if l.nrows() != l.ncols() {
        return Err(SparseError::NotSquare {
            nrows: l.nrows(),
            ncols: l.ncols(),
        });
    }
    if d.len() != l.nrows() {
        return Err(SparseError::InvalidInput(format!(
            "{what}: diagonal has {} entries but L is {}x{}",
            d.len(),
            l.nrows(),
            l.ncols()
        )));
    }
    // The solves assume a unit lower-triangular L and a nonsingular D; a
    // factor violating either would produce silently wrong substitutions,
    // so reject it here instead.
    for i in 0..l.nrows() {
        let (cols, vals) = l.row(i);
        if cols.last() != Some(&i) || *vals.last().expect("diagonal entry") != 1.0 {
            return Err(SparseError::InvalidInput(format!(
                "{what}: row {i} of L lacks the unit diagonal (or has entries above it)"
            )));
        }
    }
    if let Some(i) = d.iter().position(|v| !v.is_finite() || *v == 0.0) {
        return Err(SparseError::InvalidInput(format!(
            "{what}: diagonal pivot {i} is {} (must be finite and non-zero)",
            d[i]
        )));
    }
    Ok(LdlFactors {
        l,
        d,
        boosted_pivots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::ldl::{factorize, Factorization};

    fn sample_matrix() -> CsrMatrix {
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..4 {
            coo.push_symmetric(i, i + 1, -0.3).unwrap();
        }
        for i in 0..5 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn csr_round_trip_is_exact() {
        let m = sample_matrix();
        let mut bytes = Vec::new();
        encode_csr(&m, &mut bytes);
        let mut reader = ByteReader::new(&bytes);
        let back = decode_csr(&mut reader, "matrix").unwrap();
        reader.finish("matrix").unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn ldl_round_trip_is_bit_identical() {
        // A v1 `factors` payload, written from the primitives.
        let factors = factorize(&sample_matrix(), Factorization::Incomplete).unwrap();
        let mut bytes = Vec::new();
        encode_csr(&factors.l, &mut bytes);
        put_f64_slice(&mut bytes, &factors.d);
        put_usize(&mut bytes, factors.boosted_pivots);
        let mut reader = ByteReader::new(&bytes);
        let back = decode_ldl_factors(&mut reader, "factors").unwrap();
        reader.finish("factors").unwrap();
        assert_eq!(factors.l, back.l);
        assert_eq!(factors.d, back.d);
        assert_eq!(factors.boosted_pivots, back.boosted_pivots);
    }

    #[test]
    fn feature_round_trip_and_hostile_shapes() {
        let m = FeatureMatrix::from_vec(2, vec![1.0, -2.5, 3.0, 0.0]).unwrap();
        let mut bytes = Vec::new();
        encode_features(&m, &mut bytes);
        let mut reader = ByteReader::new(&bytes);
        assert_eq!(decode_features(&mut reader, "features").unwrap(), m);
        reader.finish("features").unwrap();
        // A huge row count of zero width, a count past the payload, a NaN.
        let header = |n: u64, dim: u64, values: &[f64]| {
            let mut bytes = Vec::new();
            put_u64(&mut bytes, n);
            put_u64(&mut bytes, dim);
            values.iter().for_each(|&v| put_f64(&mut bytes, v));
            bytes
        };
        for bytes in [
            header(1 << 40, 0, &[]),
            header(u64::MAX, 2, &[1.0, 2.0]),
            header(1, 2, &[1.0, f64::NAN]),
        ] {
            assert!(decode_features(&mut ByteReader::new(&bytes), "features").is_err());
        }
    }

    #[test]
    fn permutation_round_trip() {
        let perm = Permutation::from_new_to_old(vec![3, 1, 0, 2]).unwrap();
        let mut bytes = Vec::new();
        encode_permutation(&perm, &mut bytes);
        let back = decode_permutation(&mut ByteReader::new(&bytes), "perm").unwrap();
        assert_eq!(perm, back);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let values = [
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1e-308,
            f64::NAN,
        ];
        let mut bytes = Vec::new();
        put_f64_slice(&mut bytes, &values);
        let back = ByteReader::new(&bytes).take_f64_vec("floats").unwrap();
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        let back_bits: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, back_bits);
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking() {
        let m = sample_matrix();
        let mut bytes = Vec::new();
        encode_csr(&m, &mut bytes);
        for len in 0..bytes.len() {
            let mut reader = ByteReader::new(&bytes[..len]);
            assert!(
                decode_csr(&mut reader, "matrix").is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        // A declared length of u64::MAX must fail the pre-allocation check.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, u64::MAX);
        assert!(ByteReader::new(&bytes).take_usize_vec("vec").is_err());
        // A length that overflows the byte computation as well.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, u64::MAX / 4);
        assert!(ByteReader::new(&bytes).take_f64_vec("vec").is_err());
    }

    #[test]
    fn unprefixed_arrays_round_trip_and_refuse_short_input() {
        let (words, floats) = ([0u32, 7, u32::MAX], [-0.0, 2.5, f64::NAN]);
        let mut bytes = Vec::new();
        words.iter().for_each(|&w| put_u32(&mut bytes, w));
        floats.iter().for_each(|&v| put_f64(&mut bytes, v));
        let mut reader = ByteReader::new(&bytes);
        assert_eq!(reader.take_u32s(3, "words").unwrap(), words);
        let back = reader.take_f64s(3, "floats").unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&floats));
        reader.finish("arrays").unwrap();
        // One element past the payload, and a count whose byte size
        // overflows: both refused before anything is allocated.
        assert!(ByteReader::new(&bytes).take_u32s(10, "words").is_err());
        assert!(ByteReader::new(&bytes)
            .take_f64s(usize::MAX / 4, "floats")
            .is_err());
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut bytes = Vec::new();
        put_usize_slice(&mut bytes, &[1, 2, 3]);
        bytes.push(0xAB);
        let mut reader = ByteReader::new(&bytes);
        reader.take_usize_vec("vec").unwrap();
        assert!(reader.finish("vec").is_err());
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let data = b"mogul index payload";
        let a = checksum64(data);
        let b = checksum64(data);
        assert_eq!(a, b);
        let mut flipped = data.to_vec();
        flipped[3] ^= 0x04;
        assert_ne!(a, checksum64(&flipped));
        // Pinned value: the FNV-1a constant must never drift, or every
        // previously written file would fail its checksum.
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
