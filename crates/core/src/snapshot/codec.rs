//! The hand-rolled binary codec behind the snapshot format.
//!
//! The workspace has no serialization library, so the snapshot format
//! writes its own bytes: little-endian fixed-width integers, `f64` via
//! [`f64::to_bits`] (bit-exact round-trip, NaN payloads included),
//! length-prefixed sequences and strings, and one-byte `Option` tags. Numeric columns (`f64`, `u64`, `u32` and `u8`
//! slices) are copied as one block after their length prefix. Every read
//! is bounds-checked and reports a typed [`SnapshotError::Corrupt`]
//! instead of panicking, so a truncated or bit-flipped snapshot surfaces
//! as a recoverable error at every layer above.

use super::SnapshotError;

/// Append-only byte sink for encoding a snapshot payload.
///
/// A counting writer stores nothing, so the same encoding function can
/// size the frame exactly before writing it.
#[derive(Debug)]
pub(crate) enum Writer {
    /// Adds up the bytes it is given.
    Count(usize),
    /// Appends to the buffer, within its capacity where that suffices.
    Bytes(Vec<u8>),
}

impl Writer {
    /// Bytes counted or written so far.
    pub(crate) fn len(&self) -> usize {
        match self {
            Self::Count(n) => *n,
            Self::Bytes(buf) => buf.len(),
        }
    }

    /// The written bytes; a counting writer has none.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        match self {
            Self::Count(_) => Vec::new(),
            Self::Bytes(buf) => buf,
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        match self {
            Self::Count(n) => *n += bytes.len(),
            Self::Bytes(buf) => buf.extend_from_slice(bytes),
        }
    }

    /// A length prefix, then every value as `N` little-endian bytes,
    /// filled in one pass over a single resize.
    fn column<T: Copy, const N: usize>(&mut self, values: &[T], to_le: impl Fn(T) -> [u8; N]) {
        self.usize(values.len());
        match self {
            Self::Count(n) => *n += values.len() * N,
            Self::Bytes(buf) => {
                let start = buf.len();
                buf.resize(start + values.len() * N, 0);
                for (chunk, &value) in buf[start..].chunks_exact_mut(N).zip(values) {
                    chunk.copy_from_slice(&to_le(value));
                }
            }
        }
    }

    pub(crate) fn u8(&mut self, value: u8) {
        self.put(&[value]);
    }

    pub(crate) fn u32(&mut self, value: u32) {
        self.put(&value.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, value: u64) {
        self.put(&value.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    pub(crate) fn bool(&mut self, value: bool) {
        self.u8(u8::from(value));
    }

    pub(crate) fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    pub(crate) fn str(&mut self, value: &str) {
        self.u8s(value.as_bytes());
    }

    pub(crate) fn u8s(&mut self, values: &[u8]) {
        self.usize(values.len());
        self.put(values);
    }

    pub(crate) fn u32s(&mut self, values: &[u32]) {
        self.column(values, u32::to_le_bytes);
    }

    pub(crate) fn u64s(&mut self, values: &[u64]) {
        self.column(values, u64::to_le_bytes);
    }

    pub(crate) fn f64s(&mut self, values: &[f64]) {
        self.column(values, |v| v.to_bits().to_le_bytes());
    }

    pub(crate) fn opt_u64(&mut self, value: Option<u64>) {
        match value {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }
}

/// Bounds-checked cursor over an encoded snapshot payload.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn truncated() -> SnapshotError {
    SnapshotError::Corrupt("payload truncated".to_string())
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or_else(truncated)?;
        if end > self.bytes.len() {
            return Err(truncated());
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// A length-prefixed column of `N`-byte little-endian values.
    fn column<T, const N: usize>(
        &mut self,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let len = self.len()?;
        let bytes = self.take(len.checked_mul(N).ok_or_else(truncated)?)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|chunk| from_le(chunk.try_into().expect("chunks_exact yields N bytes")))
            .collect())
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A sequence length: a `u64` additionally sanity-bounded against the
    /// remaining payload so corrupt lengths fail fast instead of asking
    /// the allocator for exabytes.
    pub(crate) fn len(&mut self) -> Result<usize, SnapshotError> {
        let value = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if value > remaining {
            return Err(SnapshotError::Corrupt(format!(
                "sequence length {value} exceeds the {remaining} remaining payload bytes"
            )));
        }
        Ok(value as usize)
    }

    pub(crate) fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("invalid bool tag {other}"))),
        }
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.u8s()?)
            .map_err(|_| SnapshotError::Corrupt("invalid UTF-8 in string".to_string()))
    }

    pub(crate) fn u8s(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let len = self.len()?;
        Ok(self.take(len)?.to_vec())
    }

    pub(crate) fn u32s(&mut self) -> Result<Vec<u32>, SnapshotError> {
        self.column(u32::from_le_bytes)
    }

    pub(crate) fn u64s(&mut self) -> Result<Vec<u64>, SnapshotError> {
        self.column(u64::from_le_bytes)
    }

    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, SnapshotError> {
        self.column(|bytes| f64::from_bits(u64::from_le_bytes(bytes)))
    }

    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            other => Err(SnapshotError::Corrupt(format!(
                "invalid option tag {other}"
            ))),
        }
    }

    /// Asserts the payload was consumed exactly.
    pub(crate) fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the payload",
                self.bytes.len() - self.pos
            )))
        }
    }
}

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

fn xxh64_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

/// XXH64 with seed 0, the snapshot content hash: dependency-free, stable
/// across platforms, and it consumes 32-byte stripes in four independent
/// lanes instead of one byte per multiply. It guards against accidents,
/// not adversaries.
pub(crate) fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut hash = if bytes.len() >= 32 {
        // The four accumulators of seed 0.
        let mut lanes = [
            PRIME_1.wrapping_add(PRIME_2),
            PRIME_2,
            0,
            PRIME_1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh64_round(*lane, le_u64(word));
            }
        }
        let [a, b, c, d] = lanes;
        let mut hash = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in lanes {
            hash = (hash ^ xxh64_round(0, lane))
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
        }
        hash
    } else {
        PRIME_5
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ xxh64_round(0, le_u64(word)))
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("a 4-byte word"));
        hash = (hash ^ u64::from(half).wrapping_mul(PRIME_1))
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        tail = &tail[4..];
    }
    for &byte in tail {
        hash = (hash ^ u64::from(byte).wrapping_mul(PRIME_5))
            .rotate_left(11)
            .wrapping_mul(PRIME_1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME_3);
    hash ^ (hash >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn writer() -> Writer {
        Writer::Bytes(Vec::new())
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = writer();
        w.u8(7);
        w.u32(123_456_789);
        w.u64(u64::MAX - 3);
        w.bool(true);
        w.bool(false);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("héllo");
        w.opt_u64(None);
        w.opt_u64(Some(42));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 123_456_789);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(42));
        r.finish().unwrap();
    }

    #[test]
    fn columns_keep_the_per_value_layout_and_round_trip() {
        let floats = [1.5, -0.0, f64::NAN, f64::MIN_POSITIVE];
        let wide = [0, 1, u64::MAX];
        let narrow = [7, u32::MAX];
        let bytes = [3, 0, 255];
        let mut blocks = writer();
        blocks.f64s(&floats);
        blocks.u64s(&wide);
        blocks.u32s(&narrow);
        blocks.u8s(&bytes);
        blocks.u32s(&[]);
        let mut values = writer();
        values.usize(floats.len());
        floats.iter().for_each(|&v| values.f64(v));
        values.usize(wide.len());
        wide.iter().for_each(|&v| values.u64(v));
        values.usize(narrow.len());
        narrow.iter().for_each(|&v| values.u32(v));
        values.usize(bytes.len());
        bytes.iter().for_each(|&v| values.u8(v));
        values.usize(0);
        let mut counter = Writer::Count(0);
        counter.f64s(&floats);
        counter.u64s(&wide);
        counter.u32s(&narrow);
        counter.u8s(&bytes);
        counter.u32s(&[]);
        let encoded = blocks.into_bytes();
        assert_eq!(encoded, values.into_bytes());
        assert_eq!(counter.len(), encoded.len());

        let mut r = Reader::new(&encoded);
        let decoded = r.f64s().unwrap();
        assert_eq!(
            decoded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            floats.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(r.u64s().unwrap(), wide);
        assert_eq!(r.u32s().unwrap(), narrow);
        assert_eq!(r.u8s().unwrap(), bytes);
        assert!(r.u32s().unwrap().is_empty());
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = writer();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(SnapshotError::Corrupt(_))));

        // The length prefix passes the sequence-length bound (4 ≤ 20
        // remaining bytes) but four f64s need 32.
        let mut w = writer();
        w.usize(4);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0; 20]);
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.f64s(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn oversized_sequence_length_is_rejected() {
        let mut w = writer();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.len(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = writer();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // Lengths that take every stripe and tail path: bytes only, one
        // 4-byte word, one 8-byte word, all tails below a stripe, exactly
        // one stripe, and many stripes with a 31-byte tail.
        let pattern: Vec<u8> = (0..1007).map(|i| (i * 7 % 251) as u8).collect();
        for (n, expected) in [
            (1, 0xE934_A84A_DB05_2768),
            (4, 0xAE5A_CDC0_0A55_AC41),
            (8, 0x8711_6B33_65B9_24EB),
            (31, 0x0F18_7C62_B1E7_22B7),
            (32, 0x91B0_CB09_31A8_C629),
            (1007, 0x0BC5_5913_1449_D24C),
        ] {
            assert_eq!(xxh64(&pattern[..n]), expected, "length {n}");
        }
    }
}
