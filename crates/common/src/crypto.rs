//! Model-level digital signatures.
//!
//! The benchmarked blockchains spend a measurable fraction of their time on
//! signature creation and verification — the paper reports that a saturated
//! Fabric peer spends 42 % of block-validation time verifying transaction
//! signatures, and that client authentication dominates Fabric's read path
//! (Figure 8b). What matters for the reproduction is therefore (i) that a
//! signature *can* be checked — a forged or mis-bound one is rejected — and
//! (ii) that each create/verify call carries a realistic CPU cost.
//!
//! The two are kept apart: no system model reads a signature while it runs —
//! validators *charge* signing and checking through
//! `CostModel::verify_signatures_us` (`dichotomy_simnet::costs`) — and the
//! signatures themselves are computed when read: a generated transaction
//! records only that its client signed it, and `Transaction::signature`
//! derives the key pair and signs the content digest on demand, producing the
//! bytes signing at creation would have stored. Signing and verification are
//! exercised by tests: the unit tests here and in `txn.rs`, the generators'
//! goldens in `dichotomy-workload`, and `dichotomy-core`'s cross-crate
//! integration test.
//!
//! We implement a deterministic hash-based scheme: a key pair is derived from
//! a seed, the public key is the hash of the secret key, and a signature is
//! `H(secret_key || message)` together with the public key. Verification
//! recomputes the tag from the *claimed* signer's secret, which the verifier
//! rederives from the signer's id (standing in for a certificate lookup).
//! This is obviously not a real public-key scheme, but it preserves the two
//! properties above without pulling in a cryptography dependency; the README
//! lists it among the in-repo substitutes ("Offline /
//! no-external-dependencies constraint").

use crate::codec;
use crate::hash::Hash;
use crate::types::NodeId;

/// Public identity of a signer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub Hash);
codec!(Encode for struct PublicKey(digest));

/// A signature over a message: the authentication tag plus the signer's
/// public key (as carried in real transaction envelopes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// `H(secret || message)`.
    pub tag: Hash,
    /// Claimed signer.
    pub signer: PublicKey,
}
codec!(Encode for struct Signature { tag, signer });

/// Domain-separation prefix of the secret-key derivation.
const SECRET_DOMAIN: &[u8] = b"dichotomy-secret-key";

/// A signing key pair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    secret: Hash,
    public: PublicKey,
}

impl KeyPair {
    /// Derive a key pair deterministically from a byte seed.
    pub fn from_seed(seed: &[u8]) -> Self {
        Self::from_secret(Hash::of_parts(&[SECRET_DOMAIN, seed]))
    }

    fn from_secret(secret: Hash) -> Self {
        let public = PublicKey(Hash::of_parts(&[b"dichotomy-public-key", &secret.0]));
        KeyPair { secret, public }
    }

    /// Key pair for a simulated node, derived from its id. Every replica in a
    /// simulated cluster derives its peers' key pairs the same way, which
    /// stands in for certificate distribution by the membership service.
    pub fn for_node(node: NodeId) -> Self {
        KeyPair::from_seed(&node.0.to_be_bytes())
    }

    /// Key pair for a simulated client.
    pub fn for_client(client_id: u64) -> Self {
        // `from_seed` of `"client" || id`, hashed in parts: this runs on every
        // read of a client-signed transaction's signature, so it must not
        // allocate the concatenation.
        Self::from_secret(Hash::of_parts(&[
            SECRET_DOMAIN,
            b"client",
            &client_id.to_be_bytes(),
        ]))
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Sign a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature {
            tag: Hash::of_parts(&[&self.secret.0, message]),
            signer: self.public,
        }
    }
}

impl Signature {
    /// Verify this signature against a message, given the signer's key pair
    /// (the verifier rederives it from the signer's identity, standing in for
    /// a PKI lookup). Returns `true` iff the tag matches and the signature's
    /// claimed public key matches the key pair.
    pub fn verify(&self, message: &[u8], signer: &KeyPair) -> bool {
        if self.signer != signer.public {
            return false;
        }
        self.tag == Hash::of_parts(&[&signer.secret.0, message])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(b"alice");
        let sig = kp.sign(b"transfer 10 coins");
        assert!(sig.verify(b"transfer 10 coins", &kp));
    }

    #[test]
    fn tampered_message_fails() {
        let kp = KeyPair::from_seed(b"alice");
        let sig = kp.sign(b"transfer 10 coins");
        assert!(!sig.verify(b"transfer 99 coins", &kp));
    }

    #[test]
    fn wrong_signer_fails() {
        let alice = KeyPair::from_seed(b"alice");
        let bob = KeyPair::from_seed(b"bob");
        let sig = alice.sign(b"msg");
        assert!(!sig.verify(b"msg", &bob));
    }

    #[test]
    fn forged_signature_with_wrong_secret_fails() {
        let alice = KeyPair::from_seed(b"alice");
        let mallory = KeyPair::from_seed(b"mallory");
        // Mallory claims to be Alice but signs with her own secret.
        let forged = Signature {
            tag: mallory.sign(b"msg").tag,
            signer: alice.public(),
        };
        assert!(!forged.verify(b"msg", &alice));
    }

    #[test]
    fn node_keys_are_deterministic_and_distinct() {
        let a1 = KeyPair::for_node(NodeId(3));
        let a2 = KeyPair::for_node(NodeId(3));
        let b = KeyPair::for_node(NodeId(4));
        assert_eq!(a1.public(), a2.public());
        assert_ne!(a1.public(), b.public());
    }

    /// Captured at the commit before the SHA-256 kernel was replaced: a kernel
    /// that is wrong but self-consistent would still sign and verify.
    #[test]
    fn client_key_matches_golden_digest() {
        assert_eq!(
            KeyPair::for_client(1).public().0.to_hex(),
            "0d6a7d86810d54c939527819f20578af9e4a96ecb7ad4b7c18c7e457f4c9c91e"
        );
        let mut seed = b"client".to_vec();
        seed.extend_from_slice(&1u64.to_be_bytes());
        assert_eq!(
            KeyPair::for_client(1).public(),
            KeyPair::from_seed(&seed).public()
        );
    }

    #[test]
    fn client_and_node_keyspaces_do_not_collide() {
        assert_ne!(
            KeyPair::for_node(NodeId(1)).public(),
            KeyPair::for_client(1).public()
        );
    }
}
